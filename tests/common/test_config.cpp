#include "common/config.hpp"

#include <gtest/gtest.h>

namespace ehpc {
namespace {

Config parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Config::from_args(static_cast<int>(argv.size()), argv.data());
}

TEST(Config, ParsesKeyValues) {
  Config c = parse({"repeats=20", "seed=7"});
  EXPECT_EQ(c.get_int("repeats", 0), 20);
  EXPECT_EQ(c.get_int("seed", 0), 7);
}

TEST(Config, PositionalArgsCollected) {
  Config c = parse({"elastic", "gap=90", "run"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "elastic");
  EXPECT_EQ(c.positional()[1], "run");
}

TEST(Config, FallbacksWhenMissing) {
  Config c = parse({});
  EXPECT_EQ(c.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(c.get_double("y", 1.5), 1.5);
  EXPECT_EQ(c.get_or("z", "dflt"), "dflt");
  EXPECT_TRUE(c.get_bool("flag", true));
  EXPECT_FALSE(c.get("missing").has_value());
}

TEST(Config, BoolParsing) {
  Config c = parse({"a=true", "b=0", "c=YES", "d=off"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, DoubleParsing) {
  Config c = parse({"rate=2.5"});
  EXPECT_DOUBLE_EQ(c.get_double("rate", 0.0), 2.5);
}

TEST(Config, LastValueWins) {
  Config c = parse({"k=1", "k=2"});
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, SetOverrides) {
  Config c = parse({"k=1"});
  c.set("k", "9");
  EXPECT_EQ(c.get_int("k", 0), 9);
  EXPECT_TRUE(c.has("k"));
}

TEST(Config, ValueWithEqualsSign) {
  Config c = parse({"expr=a=b"});
  EXPECT_EQ(c.get_or("expr", ""), "a=b");
}

TEST(Config, DashedFlagsNormalised) {
  Config c = parse({"--quick", "--out-dir=/tmp/x", "--rel-tol=0.1"});
  EXPECT_TRUE(c.get_bool("quick", false));
  EXPECT_EQ(c.get_or("out_dir", ""), "/tmp/x");
  EXPECT_DOUBLE_EQ(c.get_double("rel_tol", 0.0), 0.1);
  EXPECT_TRUE(c.positional().empty());
}

TEST(Config, BareDoubleDashStaysPositional) {
  Config c = parse({"--", "-x"});
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "--");
  EXPECT_EQ(c.positional()[1], "-x");
}

TEST(Config, StrictParseRejectsUnknownKey) {
  std::vector<const char*> argv{"prog", "seed=7", "repeets=3"};
  EXPECT_THROW(Config::from_args(static_cast<int>(argv.size()), argv.data(),
                                 {"seed", "repeats"}),
               ConfigError);
  try {
    Config::from_args(static_cast<int>(argv.size()), argv.data(),
                      {"seed", "repeats"});
  } catch (const ConfigError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("repeets"), std::string::npos);
    EXPECT_NE(what.find("repeats"), std::string::npos);
  }
}

TEST(Config, StrictParseAcceptsKnownKeys) {
  std::vector<const char*> argv{"prog", "seed=7", "positional_ok"};
  const Config c = Config::from_args(static_cast<int>(argv.size()),
                                     argv.data(), {"seed"});
  EXPECT_EQ(c.get_int("seed", 0), 7);
  ASSERT_EQ(c.positional().size(), 1u);
}

TEST(Config, RequireKnownOnEmptyAllowedList) {
  Config c = parse({"k=1"});
  EXPECT_THROW(c.require_known({}), ConfigError);
  EXPECT_NO_THROW(parse({}).require_known({}));
}

TEST(Config, TypedGettersRejectValuesThatDoNotParseInFull) {
  Config c = parse({"partial=12abc", "word=abc", "empty=", "frac=1.5",
                    "huge=99999999999", "tail=2.5x", "inf=inf", "nan=nan",
                    "typo=ture", "padded= 7"});
  EXPECT_THROW(c.get_int("partial", 0), ConfigError);
  EXPECT_THROW(c.get_int("word", 0), ConfigError);
  EXPECT_THROW(c.get_int("empty", 0), ConfigError);
  EXPECT_THROW(c.get_int("frac", 0), ConfigError);
  EXPECT_THROW(c.get_int("huge", 0), ConfigError);
  EXPECT_THROW(c.get_int("padded", 0), ConfigError);
  EXPECT_THROW(c.get_double("tail", 0.0), ConfigError);
  EXPECT_THROW(c.get_double("empty", 0.0), ConfigError);
  EXPECT_THROW(c.get_double("inf", 0.0), ConfigError);
  EXPECT_THROW(c.get_double("nan", 0.0), ConfigError);
  EXPECT_THROW(c.get_bool("typo", false), ConfigError);
  EXPECT_THROW(c.get_bool("empty", false), ConfigError);
  EXPECT_THROW(c.get_bool("partial", false), ConfigError);
}

TEST(Config, BadValueErrorNamesTheKeyAndTheValue) {
  Config c = parse({"rescale_gap=12abc"});
  try {
    c.get_double("rescale_gap", 0.0);
    FAIL() << "12abc parsed as a number";
  } catch (const ConfigError& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("rescale_gap"), std::string::npos) << what;
    EXPECT_NE(what.find("12abc"), std::string::npos) << what;
  }
}

TEST(Config, StrictGettersStillAcceptWellFormedValues) {
  Config c = parse({"i=-42", "d=1e3", "neg=-0.25", "B=FALSE", "n=No",
                    "y=oN"});
  EXPECT_EQ(c.get_int("i", 0), -42);
  EXPECT_DOUBLE_EQ(c.get_double("d", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(c.get_double("neg", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(c.get_double("i", 0.0), -42.0);
  EXPECT_FALSE(c.get_bool("B", true));
  EXPECT_FALSE(c.get_bool("n", true));
  EXPECT_TRUE(c.get_bool("y", false));
}

TEST(Config, ValuesExposesOrderedMap) {
  Config c = parse({"b=2", "a=1"});
  ASSERT_EQ(c.values().size(), 2u);
  EXPECT_EQ(c.values().begin()->first, "a");
}

}  // namespace
}  // namespace ehpc
