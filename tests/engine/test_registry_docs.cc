/** @file Registry/README drift guard: the README scenario table must
 * carry every registered scenario's name and exact one-line
 * description (the same strings `nisqpp_run --list` prints), and the
 * README flag table one row per knob-table row (the same help text
 * `--help` prints), so docs cannot silently drift from the code. */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/knobs.hh"
#include "engine/scenario.hh"

#ifndef NISQPP_README_PATH
#error "build must define NISQPP_README_PATH (see tests/CMakeLists.txt)"
#endif

namespace nisqpp {
namespace {

/** Collapse every whitespace run (including newlines) to one space. */
std::string
normalized(const std::string &text)
{
    std::string out;
    bool inSpace = false;
    for (char c : text) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            if (!inSpace && !out.empty())
                out += ' ';
            inSpace = true;
        } else {
            out += c;
            inSpace = false;
        }
    }
    return out;
}

std::string
readmeText()
{
    std::ifstream in(NISQPP_README_PATH);
    EXPECT_TRUE(in.good()) << "cannot read " << NISQPP_README_PATH;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return normalized(buffer.str());
}

TEST(RegistryDocs, ReadmeTableCarriesEveryScenario)
{
    const std::string readme = readmeText();
    for (const Scenario &s : scenarioRegistry()) {
        // The markdown row "| `name` | description |", whitespace
        // normalized. Matching the full description string means a
        // reworded registry entry fails until the README follows.
        const std::string row = "| `" + s.name + "` | " +
                                normalized(s.description) + " |";
        EXPECT_NE(readme.find(row), std::string::npos)
            << "README scenario table is missing or outdated for '"
            << s.name << "'; expected row:\n  " << row;
    }
}

/** A code-span table cell, its pipes escaped for markdown. */
std::string
cell(const std::string &text)
{
    std::string out;
    for (char c : text)
        out += c == '|' ? std::string("\\|") : std::string(1, c);
    return "`" + out + "`";
}

TEST(RegistryDocs, ReadmeTableCarriesEveryKnob)
{
    const std::string readme = readmeText();
    for (const Knob &k : knobTable()) {
        // The row "| flag | env twin | scope | help |"; "—" marks a
        // knob without a flag or without an env twin.
        const std::string meta = knob::meta(k.kind);
        const std::string flag =
            k.flag ? cell(k.flag + (meta.empty() ? "" : " " + meta))
                   : "—";
        const std::string env =
            !k.env ? "—"
            : k.key ? cell(std::string(k.env) + " " + k.key + "=" + meta)
                    : cell(k.env);
        const std::string scope = k.scenario   ? cell(k.scenario)
                                  : k.runnerOnly ? cell("nisqpp_run")
                                                 : "all";
        const std::string row = "| " + flag + " | " + env + " | " +
                                scope + " | " + normalized(k.help) + " |";
        EXPECT_NE(readme.find(row), std::string::npos)
            << "README flag table is missing or outdated for '"
            << (k.flag ? k.flag : k.env) << "'; expected row:\n  " << row;
    }
}

TEST(RegistryDocs, EveryScenarioHasDescription)
{
    // `nisqpp_run --list` prints these verbatim (CLI contract in
    // tests/cli/check_cli.cmake); an empty one would list a bare
    // name.
    for (const Scenario &s : scenarioRegistry())
        EXPECT_FALSE(s.description.empty()) << s.name;
}

} // namespace
} // namespace nisqpp
