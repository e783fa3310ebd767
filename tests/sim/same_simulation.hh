/**
 * @file
 * Test helper: whether two RunResults come from the same simulation.
 * They must agree on every field but avgTimes, which holds the host
 * wall-clock times of the runtime steps and so differs between two
 * runs of one cell.
 */

#ifndef CDCS_TESTS_SIM_SAME_SIMULATION_HH
#define CDCS_TESTS_SIM_SAME_SIMULATION_HH

#include "sim/run_result.hh"

namespace cdcs
{

inline bool
sameSimulation(RunResult a, const RunResult &b)
{
    a.avgTimes = b.avgTimes;
    return a == b;
}

} // namespace cdcs

#endif // CDCS_TESTS_SIM_SAME_SIMULATION_HH
