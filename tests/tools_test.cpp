// Tests for the CLI flag parser.
#include <gtest/gtest.h>

#include "tools/flags.hpp"

namespace supmr::tools {
namespace {

Flags parse_ok(std::vector<std::string> args,
               const std::set<std::string>& known) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  auto flags = Flags::parse(int(argv.size()), argv.data(), known);
  EXPECT_TRUE(flags.ok()) << flags.status().to_string();
  return std::move(flags).value();
}

TEST(Flags, PositionalAndNamed) {
  Flags f = parse_ok({"input.txt", "--chunk=64MB", "--verbose", "more.txt"},
                     {"chunk", "verbose"});
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"input.txt", "more.txt"}));
  EXPECT_EQ(f.get_or("chunk", ""), "64MB");
  EXPECT_TRUE(f.get_bool("verbose"));
  EXPECT_FALSE(f.get_bool("missing"));
}

TEST(Flags, UnknownFlagRejected) {
  std::vector<std::string> args = {"--tpyo=1"};
  std::vector<char*> argv{args[0].data()};
  auto flags = Flags::parse(1, argv.data(), {"typo"});
  EXPECT_FALSE(flags.ok());
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);
}

TEST(Flags, SizeParsing) {
  Flags f = parse_ok({"--chunk=1GB"}, {"chunk"});
  auto size = f.get_size("chunk", 0);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kGB);
  EXPECT_EQ(*f.get_size("absent", 42), 42u);
}

TEST(Flags, SizeParsingRejectsGarbage) {
  Flags f = parse_ok({"--chunk=banana"}, {"chunk"});
  EXPECT_FALSE(f.get_size("chunk", 0).ok());
}

TEST(Flags, IntAndDouble) {
  Flags f = parse_ok({"--threads=8", "--rate=1.5"}, {"threads", "rate"});
  EXPECT_EQ(*f.get_int("threads", 0), 8u);
  EXPECT_DOUBLE_EQ(*f.get_double("rate", 0.0), 1.5);
  EXPECT_FALSE(f.get_int("rate", 0).ok());  // "1.5" is not an integer

  // Each integer reads into its destination type: a sign on an unsigned
  // type and a value outside the type's range are errors, not wrapped or
  // saturated values.
  Flags g = parse_ok({"--neg=-1", "--plus=+3", "--big=99999999999999999999",
                      "--u32=4294967296", "--lo=-5", "--max=4294967295"},
                     {"neg", "plus", "big", "u32", "lo", "max"});
  EXPECT_FALSE(g.get_int("neg", 0).ok());
  EXPECT_EQ(g.get_int("neg", 0).status().message(),
            "bad integer for --neg: -1");
  EXPECT_FALSE(g.get_int("plus", 0).ok());
  EXPECT_FALSE(g.get_int("big", 0).ok());
  EXPECT_FALSE(g.get_int<std::int64_t>("big", 0).ok());
  EXPECT_FALSE(g.get_int<std::uint32_t>("u32", 0).ok());
  EXPECT_EQ(*g.get_int<std::uint64_t>("u32", 0), 4294967296u);
  EXPECT_EQ(*g.get_int<std::uint32_t>("max", 0), 4294967295u);
  EXPECT_EQ(*g.get_int<std::int64_t>("lo", 0), -5);
  EXPECT_FALSE(g.get_int("lo", 0).ok());
  EXPECT_EQ(*g.get_int<std::int64_t>("absent", -7), -7);
}

TEST(Flags, BooleanForms) {
  Flags f = parse_ok({"--a", "--b=false", "--c=0", "--d=yes"},
                     {"a", "b", "c", "d"});
  EXPECT_TRUE(f.get_bool("a"));
  EXPECT_FALSE(f.get_bool("b"));
  EXPECT_FALSE(f.get_bool("c"));
  EXPECT_TRUE(f.get_bool("d"));
}

TEST(Flags, EmptyArgs) {
  auto flags = Flags::parse(0, nullptr, {});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->positional().empty());
}

}  // namespace
}  // namespace supmr::tools
