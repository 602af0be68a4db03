// Knob documentation drift: every sim::knob_table() row must appear in the
// knob tables of README.md and docs/REPRODUCING.md (flag and environment
// variable), and every QUAMAX_* variable those tables list must be a row.
// A "knob table" line is any Markdown table row of those documents.

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <string>

#include "quamax/sim/knobs.hpp"

namespace quamax::sim {
namespace {

/// Every `--flag` and `QUAMAX_*` token on the Markdown table rows of `doc`.
std::set<std::string> table_tokens(const std::string& doc) {
  std::ifstream in(std::string(QUAMAX_SOURCE_DIR) + "/" + doc);
  EXPECT_TRUE(in.good()) << "cannot read " << doc;
  const auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
  };
  std::set<std::string> tokens;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind('|', 0) != 0) continue;
    for (std::size_t at = 0; at < line.size(); ++at) {
      if (line.compare(at, 2, "--") != 0 && line.compare(at, 7, "QUAMAX_") != 0)
        continue;
      std::size_t end = at + 2;
      while (end < line.size() && word(line[end])) ++end;
      tokens.insert(line.substr(at, end - at));
      at = end;
    }
  }
  return tokens;
}

TEST(KnobDocsTest, ReadmeAndReproducingTablesMatchTheKnobTable) {
  std::set<std::string> envs;
  for (const Knob& k : knob_table()) envs.insert(std::string(k.env));

  for (const std::string doc : {"README.md", "docs/REPRODUCING.md"}) {
    SCOPED_TRACE(doc);
    const std::set<std::string> tokens = table_tokens(doc);
    for (const Knob& k : knob_table()) {
      EXPECT_TRUE(tokens.count(std::string(k.env))) << k.env << " undocumented";
      if (!k.flag.empty()) {
        EXPECT_TRUE(tokens.count(std::string(k.flag)))
            << k.flag << " undocumented";
      }
    }
    for (const std::string& token : tokens) {
      if (token.rfind("QUAMAX_", 0) == 0) {
        EXPECT_TRUE(envs.count(token)) << token << " is not a knob table row";
      }
    }
  }
}

}  // namespace
}  // namespace quamax::sim
