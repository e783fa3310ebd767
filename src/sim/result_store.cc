#include "sim/result_store.hh"

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hh"
#include "obs/stat_registry.hh"

// CMake injects the `git describe` string for this source file only;
// builds outside a git checkout (or without the definition) degrade
// to a fixed salt that still invalidates against real versions.
#ifndef CDCS_CODE_VERSION
#define CDCS_CODE_VERSION "unknown"
#endif

namespace cdcs
{

namespace
{

constexpr std::uint32_t recordMagic = 0x43444352; // "CDCR"
// Format 4: records carry the far-memory-tier fields (per-tier
// access/latency counters, tier promotion/demotion totals, and the
// NocLinkStat far flag). Older records are rejected.
constexpr std::uint32_t recordFormat = 4;

// Store traffic stats; the record-size histogram buckets by power of
// two from 4 KiB.
const StatId kStoreHits = StatRegistry::counter("store.hits");
const StatId kStoreMisses = StatRegistry::counter("store.misses");
const StatId kStoreCorrupt = StatRegistry::counter("store.corrupt");
const StatId kStoreWrites = StatRegistry::counter("store.writes");
const StatRegistry::HistId kStoreRecordBytes =
    StatRegistry::histogram("store.record_bytes", 6, 4096);

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; i++) {
        hash ^= bytes[i];
        hash *= 0x100000001B3ull;
    }
    return hash;
}

constexpr std::uint64_t fnvOffset = 0xCBF29CE484222325ull;

/** Append-only little-endian byte writer. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::string &out_) : out(out_) {}

    void u32(std::uint32_t v) { put(v, 4); }
    void u64(std::uint64_t v) { put(v, 8); }
    void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v), 8); }
    void f64(double v) { put(std::bit_cast<std::uint64_t>(v), 8); }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        out += s;
    }

    /** Write a sequence's element count (the walk writes the rest). */
    template <class Seq>
    void
    count(const Seq &xs, std::size_t)
    {
        u32(static_cast<std::uint32_t>(xs.size()));
    }

  private:
    void
    put(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; i++)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }

    std::string &out;
};

/**
 * Bounds-checked little-endian reader. The first read past the end
 * fails the reader: that read and every later one leave their target
 * untouched, and ok() reports the failure.
 */
class ByteReader
{
  public:
    ByteReader(const char *data_, std::size_t size_)
        : data(data_), size(size_)
    {
    }

    template <class T>
    void
    u32(T &v)
    {
        std::uint64_t raw = 0;
        if (take(4, &raw))
            v = static_cast<T>(raw);
    }

    void u64(std::uint64_t &v) { take(8, &v); }

    template <class T>
    void
    i64(T &v)
    {
        std::uint64_t raw = 0;
        if (take(8, &raw))
            v = static_cast<T>(static_cast<std::int64_t>(raw));
    }

    void
    f64(double &v)
    {
        std::uint64_t raw = 0;
        if (take(8, &raw))
            v = std::bit_cast<double>(raw);
    }

    void
    str(std::string &s)
    {
        std::uint32_t len = 0;
        u32(len);
        if (failed || size - pos < len) {
            failed = true;
            return;
        }
        s.assign(data + pos, len);
        pos += len;
    }

    /**
     * Read a sequence's element count and size `xs` to it. A count
     * that the bytes left cannot hold at `min_bytes` per element
     * fails the reader before anything is allocated.
     */
    template <class Seq>
    void
    count(Seq &xs, std::size_t min_bytes)
    {
        std::uint32_t n = 0;
        u32(n);
        if ((size - pos) / min_bytes < n)
            failed = true;
        xs.resize(failed ? 0 : n);
    }

    bool ok() const { return !failed; }
    std::size_t remaining() const { return size - pos; }

  private:
    bool
    take(std::size_t bytes, std::uint64_t *raw)
    {
        if (failed || size - pos < bytes) {
            failed = true;
            return false;
        }
        *raw = 0;
        for (std::size_t i = 0; i < bytes; i++) {
            *raw |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(data[pos + i]))
                << (8 * i);
        }
        pos += bytes;
        return true;
    }

    const char *data;
    std::size_t size;
    std::size_t pos = 0;
    bool failed = false;
};

/**
 * The one field list of a stored RunResult: save() runs it with a
 * ByteWriter over a const result, load() with a ByteReader. `int`
 * fields go out as i64, TileId and bool as u32. Each counted
 * sequence names its element's minimum encoded size, which the
 * reader checks against the bytes left before it allocates. Adding
 * a stored field is one line here plus a recordFormat bump (the
 * golden checksum in result_store_test.cc pins the bytes).
 */
template <class Io, class R>
void
walkResult(Io &io, R &r)
{
    const auto f64s = [&io](auto &xs) {
        io.count(xs, 8);
        for (auto &x : xs)
            io.f64(x);
    };
    f64s(r.threadInstrs);
    f64s(r.threadCycles);
    f64s(r.threadIpc);
    f64s(r.procThroughput);
    io.f64(r.totalInstrs);
    io.f64(r.wallCycles);
    io.u64(r.llcAccesses);
    io.u64(r.llcHits);
    io.u64(r.demandMoves);
    io.u64(r.moveProbes);
    io.u64(r.memAccesses);
    io.u64(r.instantMoved);
    io.u64(r.bulkInvalidated);
    io.u64(r.bgInvalidated);
    io.u64(r.pausedCycles);
    io.i64(r.reconfigs);
    io.f64(r.avgTimes.allocUs);
    io.f64(r.avgTimes.threadPlaceUs);
    io.f64(r.avgTimes.dataPlaceUs);
    io.f64(r.onChipLatSum);
    io.f64(r.offChipLatSum);
    for (auto &hops : r.trafficFlitHops)
        io.u64(hops);
    io.count(r.nocLinks, 44);
    for (auto &link : r.nocLinks) {
        io.u32(link.src);
        io.u32(link.dst);
        io.i64(link.memCtrl);
        io.u64(link.flits);
        io.f64(link.util);
        io.f64(link.waitCycles);
        io.u32(link.far);
    }
    io.u64(r.memMigratedPages);
    io.f64(r.energy.staticE);
    io.f64(r.energy.core);
    io.f64(r.energy.net);
    io.f64(r.energy.llc);
    io.f64(r.energy.mem);
    f64s(r.ipcTrace);
    io.u64(r.ipcBinCycles);
    io.count(r.memCtrlAccesses, 8);
    for (auto &n : r.memCtrlAccesses)
        io.u64(n);
    io.count(r.epochTrace, 48);
    for (auto &rec : r.epochTrace) {
        io.i64(rec.epoch);
        io.i64(rec.activeThreads);
        io.i64(rec.churnDelta);
        io.f64(rec.aggIpc);
        io.i64(rec.placementMoves);
        io.u64(rec.movedLines);
        io.count(rec.stats, 8);
        for (auto &v : rec.stats)
            io.u64(v);
    }
    io.count(r.statNames, 4);
    for (auto &name : r.statNames)
        io.str(name);
    // Far-memory tier (format 4), appended after the format 3 fields.
    io.u64(r.farMemAccesses);
    io.f64(r.farOffChipLatSum);
    io.u64(r.tierPromotions);
    io.u64(r.tierDemotions);
    io.u64(r.farResidentPages);
    io.u64(r.tieredPages);
}

bool
makeDirs(const std::string &path)
{
    std::string partial;
    partial.reserve(path.size());
    for (std::size_t i = 0; i <= path.size(); i++) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() && partial != ".") {
            if (::mkdir(partial.c_str(), 0755) != 0 &&
                errno != EEXIST) {
                return false;
            }
        }
        if (i < path.size())
            partial.push_back('/');
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    out->clear();
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

} // anonymous namespace

std::string
ResultStore::buildVersion()
{
    return CDCS_CODE_VERSION;
}

ResultStore::ResultStore(std::string dir, std::string version_)
    : root(std::move(dir)), version(std::move(version_))
{
    if (root.empty())
        return;
    if (!makeDirs(root)) {
        const std::string why = std::strerror(errno);
        failure = "cannot create '" + root + "': " + why;
        return;
    }
    const std::string lock_path = root + "/.lock";
    lockFd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
    if (lockFd < 0) {
        const std::string why = std::strerror(errno);
        failure = "cannot open '" + lock_path + "': " + why;
        return;
    }
    usable = true;
}

ResultStore::~ResultStore()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

std::uint64_t
ResultStore::keyHash(const std::string &key) const
{
    // Salt with the code version (and a separator so no version/key
    // pair can alias another): a rebuild re-keys every record.
    std::uint64_t hash =
        fnv1a64(version.data(), version.size(), fnvOffset);
    hash = fnv1a64("\0", 1, hash);
    return fnv1a64(key.data(), key.size(), hash);
}

std::string
ResultStore::recordPath(std::uint64_t hash) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "/%016llx.res",
                  static_cast<unsigned long long>(hash));
    return root + name;
}

bool
ResultStore::load(const std::string &key, RunResult *out)
{
    if (!usable)
        return false;
    const std::uint64_t hash = keyHash(key);
    std::string blob;
    if (!readFile(recordPath(hash), &blob)) {
        StatRegistry::add(kStoreMisses);
        std::lock_guard<std::mutex> lock(mu);
        counters.misses++;
        return false;
    }

    const auto reject = [&](bool corrupt) {
        StatRegistry::add(corrupt ? kStoreCorrupt : kStoreMisses);
        std::lock_guard<std::mutex> lock(mu);
        (corrupt ? counters.corrupt : counters.misses)++;
        return false;
    };

    if (blob.size() < 8)
        return reject(true);
    // The trailing checksum covers everything before it.
    const std::size_t body = blob.size() - 8;
    ByteReader tail(blob.data() + body, 8);
    std::uint64_t want_sum = 0;
    tail.u64(want_sum);
    if (fnv1a64(blob.data(), body, fnvOffset) != want_sum)
        return reject(true);

    ByteReader r(blob.data(), body);
    std::uint32_t magic = 0, format = 0;
    std::uint64_t stored_hash = 0;
    std::string stored_version, stored_key;
    r.u32(magic);
    r.u32(format);
    r.u64(stored_hash);
    r.str(stored_version);
    r.str(stored_key);
    if (!r.ok() || magic != recordMagic || format != recordFormat ||
        stored_hash != hash) {
        return reject(true);
    }
    // A stale version or a (vanishingly unlikely) hash collision is a
    // well-formed record that simply isn't ours: a miss, not corrupt.
    if (stored_version != version || stored_key != key)
        return reject(false);
    RunResult res;
    walkResult(r, res);
    if (!r.ok() || r.remaining() != 0)
        return reject(true);

    *out = std::move(res);
    StatRegistry::add(kStoreHits);
    std::lock_guard<std::mutex> lock(mu);
    counters.hits++;
    return true;
}

bool
ResultStore::save(const std::string &key, const RunResult &result)
{
    if (!usable)
        return false;
    const std::uint64_t hash = keyHash(key);

    std::string blob;
    blob.reserve(1024);
    ByteWriter w(blob);
    w.u32(recordMagic);
    w.u32(recordFormat);
    w.u64(hash);
    w.str(version);
    w.str(key);
    walkResult(w, result);
    w.u64(fnv1a64(blob.data(), blob.size(), fnvOffset));

    const std::string path = recordPath(hash);
    char tmp_name[64];
    std::snprintf(tmp_name, sizeof(tmp_name),
                  "/.tmp-%016llx-%ld",
                  static_cast<unsigned long long>(hash),
                  static_cast<long>(::getpid()));
    const std::string tmp = root + tmp_name;

    // Advisory writer lock: concurrent processes serialize their
    // stage-and-rename, so two writers of the same cell cannot
    // interleave tmp-file writes (the pid-suffixed names already keep
    // them apart; the lock makes the overwrite order well-defined).
    ::flock(lockFd, LOCK_EX);
    const bool existed = ::access(path.c_str(), F_OK) == 0;
    bool ok = false;
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f != nullptr) {
        ok = std::fwrite(blob.data(), 1, blob.size(), f) ==
            blob.size();
        ok = std::fclose(f) == 0 && ok;
        if (ok)
            ok = std::rename(tmp.c_str(), path.c_str()) == 0;
        if (!ok)
            ::unlink(tmp.c_str());
    }
    ::flock(lockFd, LOCK_UN);

    if (ok) {
        StatRegistry::add(kStoreWrites);
        StatRegistry::observe(kStoreRecordBytes, blob.size());
    }
    std::lock_guard<std::mutex> lock(mu);
    if (ok) {
        counters.writes++;
        if (existed)
            counters.evictions++;
    }
    return ok;
}

ResultStoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace cdcs
