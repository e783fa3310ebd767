#include "workload/traffic.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>

#include "common/log.hh"

namespace cdcs
{

namespace
{

/** Salts of the schedule's derived streams (arbitrary, fixed). */
constexpr std::uint64_t hotSeatSalt = 0x4807'5E7;
constexpr std::uint64_t tailSalt = 0x7A11'D157;
constexpr std::uint64_t scheduleSalt = 0x5C8E'D01E;

} // namespace

TrafficSchedule::TrafficSchedule(const TrafficConfig &config)
    : cfg(config),
      zipf(std::max<std::uint64_t>(1, config.skewLines),
           config.skewAlpha),
      scheduleRng(mix64(config.seed ^ scheduleSalt))
{
    cdcs_assert(cfg.skewLines > 0, "overlay needs a footprint");
    std::string err;
    if (!parseChurn(cfg.churn, &events, &err))
        fatal("%s", err.c_str());
    // The hot-set table covers the hottest ranks (at most the whole
    // footprint); the initial seats are a pure function of the seed,
    // so every scheme sees the same hot lines.
    const std::uint64_t table =
        std::min(cfg.skewHotLines, cfg.skewLines);
    hotLine.resize(static_cast<std::size_t>(table));
    // Page-aligned seating hashes once per linesPerPage-rank block so
    // consecutive ranks fill whole pages; pages with no full block
    // left (a footprint under one page) degenerate to page 0. Drift
    // re-seats single ranks either way, so alignment erodes under
    // drift — the tiering study that relies on it doesn't drift.
    const std::uint64_t pages =
        std::max<std::uint64_t>(1, cfg.skewLines >> pageLineShift);
    for (std::size_t r = 0; r < hotLine.size(); r++) {
        if (cfg.skewPageHot) {
            const std::uint64_t block = r >> pageLineShift;
            const std::uint64_t page =
                mix64(cfg.seed ^
                      (hotSeatSalt + block * 0x9E3779B97F4A7C15ull)) %
                pages;
            hotLine[r] = page * linesPerPage +
                (r & (linesPerPage - 1));
        } else {
            hotLine[r] =
                mix64(cfg.seed ^
                      (hotSeatSalt + r * 0x9E3779B97F4A7C15ull)) %
                cfg.skewLines;
        }
    }
}

bool
TrafficSchedule::parseChurn(const std::string &spec,
                            std::vector<ChurnEvent> *out,
                            std::string *err)
{
    std::vector<ChurnEvent> parsed;
    const auto fail = [&](const std::string &what) {
        if (err != nullptr)
            *err = "bad churn schedule '" + spec + "': " + what;
        return false;
    };
    if (!spec.empty() && spec.back() == ',')
        return fail("trailing comma");
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? spec.size() : comma + 1;
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 2 > item.size()) {
            return fail("expected epoch:+k or epoch:-k, got '" +
                        item + "'");
        }
        const char sign = item[colon + 1];
        if (sign != '+' && sign != '-')
            return fail("count in '" + item + "' needs a +/- sign");
        // Digits only, and small enough for an int.
        const auto number = [](const char *text, char **end) {
            errno = 0;
            const long long n = std::isdigit(
                static_cast<unsigned char>(*text))
                ? std::strtoll(text, end, 10)
                : 0;
            return errno == 0 && n <= INT_MAX ? n : 0;
        };
        char *end = nullptr;
        const long long epoch = number(item.c_str(), &end);
        if (epoch < 1 || end != item.c_str() + colon)
            return fail("epoch in '" + item + "' must be >= 1");
        const char *count_str = item.c_str() + colon + 2;
        const long long count = number(count_str, &end);
        if (count < 1 || *end != '\0')
            return fail("count in '" + item + "' must be >= 1");
        parsed.push_back({static_cast<int>(epoch),
                          sign == '-' ? -static_cast<int>(count)
                                      : static_cast<int>(count)});
    }
    std::stable_sort(parsed.begin(), parsed.end(),
                     [](const ChurnEvent &a, const ChurnEvent &b) {
                         return a.epoch < b.epoch;
                     });
    if (out != nullptr)
        *out = std::move(parsed);
    return true;
}

std::uint64_t
TrafficSchedule::nextHotLine(Rng &rng)
{
    const std::uint64_t rank = zipf.sample(rng);
    if (rank < hotLine.size())
        return hotLine[static_cast<std::size_t>(rank)];
    // The cold tail keeps static seats: a salted hash scatters the
    // ranks over the footprint so the tail doesn't alias the paper's
    // sequential layouts.
    return mix64(rank * 0x9E3779B97F4A7C15ull ^ tailSalt) %
        cfg.skewLines;
}

bool
TrafficSchedule::epochBoundary(int epoch)
{
    if (cfg.skewDriftEpochs <= 0 || !skewEnabled() || epoch <= 0 ||
        epoch % cfg.skewDriftEpochs != 0 || hotLine.empty()) {
        return false;
    }
    // Re-seat a rotating window of the table: hot objects cool off
    // and fresh ones trend, but most of the hot set survives each
    // drift (partial turnover, not a wholesale reshuffle).
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(cfg.skewDriftFraction *
                                    static_cast<double>(
                                        hotLine.size())));
    for (std::size_t i = 0; i < n; i++) {
        hotLine[driftCursor] = scheduleRng.below(cfg.skewLines);
        driftCursor = (driftCursor + 1) % hotLine.size();
        drifted++;
    }
    return true;
}

ChurnActions
TrafficSchedule::actionsAt(int epoch,
                           const std::vector<int> &active_ids)
{
    ChurnActions out;
    std::vector<int> active = active_ids;
    for (const ChurnEvent &ev : events) {
        if (ev.epoch != epoch)
            continue;
        if (ev.delta < 0) {
            for (int k = 0; k < -ev.delta && !active.empty(); k++) {
                const auto idx = static_cast<std::size_t>(
                    scheduleRng.below(active.size()));
                const int t = active[idx];
                active.erase(active.begin() +
                             static_cast<std::ptrdiff_t>(idx));
                departedStack.push_back(t);
                out.depart.push_back(t);
            }
        } else {
            for (int k = 0; k < ev.delta && !departedStack.empty();
                 k++) {
                const int t = departedStack.back();
                departedStack.pop_back();
                active.push_back(t);
                out.arrive.push_back(t);
            }
        }
    }
    return out;
}

} // namespace cdcs
