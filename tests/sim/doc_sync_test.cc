/**
 * @file
 * Doc-sync lint: every `--set` key and CDCS_* variable of the knob
 * table must be documented in EXPERIMENTS.md (in backticks), so new
 * knobs cannot land without their docs. Built with CDCS_REPO_ROOT
 * pointing at the source tree.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "sim/overrides.hh"

#ifndef CDCS_REPO_ROOT
#define CDCS_REPO_ROOT "."
#endif

namespace cdcs
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string out;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(DocSyncTest, EveryKnobDocumentedInExperimentsMd)
{
    const std::string doc =
        readFile(std::string(CDCS_REPO_ROOT) + "/EXPERIMENTS.md");
    ASSERT_FALSE(doc.empty())
        << "EXPERIMENTS.md not found under " << CDCS_REPO_ROOT;
    for (const Knob &k : knobTable()) {
        for (const char *name : {k.name, k.env}) {
            if (name != nullptr) {
                EXPECT_NE(doc.find("`" + std::string(name) + "`"),
                          std::string::npos)
                    << "knob '" << name
                    << "' is missing from EXPERIMENTS.md";
            }
        }
    }
}

} // anonymous namespace
} // namespace cdcs
