// Fixture: a SystemConfig with a behavior knob (fooKnob) and a nested
// field (noc.flitBits) that have no knob-table row.
#ifndef FIXTURE_SYSTEM_CONFIG_HH
#define FIXTURE_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

namespace cdcs
{

enum class MoveScheme : std::uint8_t
{
    Instant,
    Background
};

struct NocConfig
{
    std::uint64_t routerCycles = 3;
    std::uint32_t flitBits = 128;
};

struct SystemConfig
{
    int meshWidth = 8;
    NocConfig noc;
    MoveScheme moves = MoveScheme::Background;
    std::string memPlacement = "interleave";

    /** Behavior knob the table forgot. */
    double fooKnob = 1.0;

    std::uint64_t
    llcLines() const
    {
        return static_cast<std::uint64_t>(meshWidth);
    }
};

} // namespace cdcs

#endif
