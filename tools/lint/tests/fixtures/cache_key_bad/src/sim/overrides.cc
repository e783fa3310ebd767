// Fixture: a knob table missing two SystemConfig fields. The
// commented-out rows must not count as coverage.
#include "sim/system_config.hh"

namespace cdcs
{

constexpr Knob kKnobs[] = {
    {.name = "meshWidth", CDCS_FIELD(meshWidth), .doc = "Width."},
    {.name = "routerCycles", CDCS_FIELD(noc.routerCycles),
     .doc = "Router cycles."},
    // {CDCS_FIELD(noc.flitBits), .doc = "Flit width."},
    {CDCS_FIELD(moves), .unkeyed = "set by the scheme", .doc = "Moves."},
    {.name = "memPlacement", CDCS_FIELD(memPlacement),
     .doc = "Placement."},
    /* {.name = "fooKnob", CDCS_FIELD(fooKnob)}, */
};

} // namespace cdcs
