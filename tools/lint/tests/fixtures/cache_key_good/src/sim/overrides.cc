// Fixture: a knob table with a row for every SystemConfig field.
#include "sim/system_config.hh"

namespace cdcs
{

constexpr Knob kKnobs[] = {
    {.name = "meshWidth", CDCS_FIELD(meshWidth), .doc = "Width."},
    {.name = "routerCycles", CDCS_FIELD(noc.routerCycles),
     .doc = "Router cycles."},
    {CDCS_FIELD(noc.flitBits), .doc = "Flit width."},
    {CDCS_FIELD(moves), .unkeyed = "set by the scheme", .doc = "Moves."},
    {.name = "memPlacement", CDCS_FIELD(memPlacement),
     .doc = "Placement."},
    {.name = "mixes", .unkeyed = "study knob", .doc = "Mixes."},
};

} // namespace cdcs
