#include "util/flags.hpp"

#include <gtest/gtest.h>

namespace spooftrack::util {
namespace {

FlagSet make_flags() {
  FlagSet flags;
  flags.define("seed", "random seed", "42")
      .define("name", "a string", "default")
      .define("rate", "a double", "1.5")
      .define_switch("verbose", "more output");
  return flags;
}

TEST(Flags, DefaultsApplyWithoutArguments) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(flags.parse({}));
  EXPECT_EQ(flags.get("seed"), "42");
  EXPECT_EQ(flags.get_u64("seed"), 42u);
  EXPECT_EQ(flags.get("name"), "default");
  EXPECT_FALSE(flags.get_switch("verbose"));
  EXPECT_DOUBLE_EQ(*flags.get_double("rate"), 1.5);
}

TEST(Flags, ParsesValuesAndSwitches) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(flags.parse({"--seed=7", "--verbose", "--name=abc"}));
  EXPECT_EQ(flags.get_u64("seed"), 7u);
  EXPECT_TRUE(flags.get_switch("verbose"));
  EXPECT_EQ(flags.get("name"), "abc");
}

TEST(Flags, CollectsPositionals) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(flags.parse({"input.txt", "--seed=1", "more"}));
  EXPECT_EQ(flags.positionals(),
            (std::vector<std::string>{"input.txt", "more"}));
}

TEST(Flags, RejectsUnknownFlag) {
  FlagSet flags = make_flags();
  EXPECT_FALSE(flags.parse({"--nope=1"}));
  EXPECT_NE(flags.error().find("unknown flag"), std::string::npos);
}

TEST(Flags, RejectsValuelessFlagAndValuedSwitch) {
  FlagSet flags = make_flags();
  EXPECT_FALSE(flags.parse({"--seed"}));
  EXPECT_NE(flags.error().find("needs a value"), std::string::npos);
  FlagSet again = make_flags();
  EXPECT_FALSE(again.parse({"--verbose=yes"}));
  EXPECT_NE(again.error().find("takes no value"), std::string::npos);
}

TEST(Flags, NumericParsingIsStrict) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(flags.parse({"--name=12x", "--rate=oops", "--seed=4294967296"}));
  EXPECT_FALSE(flags.get_u64("name").has_value());
  EXPECT_FALSE(flags.get_double("rate").has_value());
  EXPECT_FALSE(flags.get_u64("unknown-flag").has_value());
  // Range bounds are inclusive.
  EXPECT_EQ(flags.get_u64("seed", 0, 4294967296u), 4294967296u);
  EXPECT_FALSE(flags.get_u64("seed", 0, 4294967295u).has_value());
  EXPECT_FALSE(flags.get_u64("seed", 4294967297u).has_value());
}

TEST(Flags, EmptyValueAllowedForStrings) {
  FlagSet flags = make_flags();
  ASSERT_TRUE(flags.parse({"--name="}));
  EXPECT_EQ(flags.get("name"), "");
}

TEST(Flags, ArgcArgvEntrypoint) {
  FlagSet flags = make_flags();
  const char* argv[] = {"prog", "--seed=9", "pos"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_EQ(flags.get_u64("seed"), 9u);
  EXPECT_EQ(flags.positionals().size(), 1u);
}

TEST(Flags, UsageListsAllFlagsInOrder) {
  const FlagSet flags = make_flags();
  const std::string usage = flags.usage();
  const auto seed_pos = usage.find("--seed");
  const auto verbose_pos = usage.find("--verbose");
  EXPECT_NE(seed_pos, std::string::npos);
  EXPECT_NE(verbose_pos, std::string::npos);
  EXPECT_LT(seed_pos, verbose_pos);
  EXPECT_NE(usage.find("random seed"), std::string::npos);
}

TEST(Flags, RejectsDuplicateFlagWithinOneParse) {
  FlagSet flags = make_flags();
  EXPECT_FALSE(flags.parse({"--seed=1", "--seed=2"}));
  EXPECT_NE(flags.error().find("duplicate flag"), std::string::npos);
  FlagSet switches = make_flags();
  EXPECT_FALSE(switches.parse({"--verbose", "--verbose"}));
  EXPECT_NE(switches.error().find("duplicate flag"), std::string::npos);
}

TEST(Flags, ReparseIsIdempotentNotCumulative) {
  // `set` state is per-parse: the same flag appearing in two *separate*
  // parses is not a duplicate, and switch state from an earlier parse does
  // not leak into the next.
  FlagSet flags = make_flags();
  ASSERT_TRUE(flags.parse({"--seed=1", "--verbose"}));
  EXPECT_TRUE(flags.get_switch("verbose"));
  ASSERT_TRUE(flags.parse({"--seed=2"}));
  EXPECT_EQ(flags.get_u64("seed"), 2u);
  EXPECT_FALSE(flags.get_switch("verbose"));
}

TEST(Flags, RedefinitionUpdatesInPlace) {
  FlagSet flags;
  flags.define("x", "first", "1");
  flags.define("x", "second", "2");
  ASSERT_TRUE(flags.parse({}));
  EXPECT_EQ(flags.get("x"), "2");
  // Still listed once.
  const std::string usage = flags.usage();
  EXPECT_EQ(usage.find("--x"), usage.rfind("--x"));
}

}  // namespace
}  // namespace spooftrack::util
