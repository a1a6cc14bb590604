// The strict flag table shared by silica_sim, silica_trace and every bench.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/flags.h"

namespace silica {
namespace {

struct Values {
  bool json = false;
  int count = 3;
  uint64_t seed = 1;
  double rate = 0.5;
  std::string out;
  std::string mode = "fast";
  std::vector<int> sizes = {1, 2};
  bool scrub = false;
  double interval = 60.0;
};

// Parses `args` (argv without the program name) into a fresh table.
bool Parse(Values& v, std::initializer_list<const char*> args) {
  FlagSet flags("prog", "A test program.");
  flags.Bool("json", &v.json, "json output")
      .Int("count", &v.count, "a count")
      .Uint("seed", &v.seed, "a seed")
      .Double("rate", &v.rate, "a rate")
      .String("out", &v.out, "an output file")
      .Enum("mode", &v.mode, {"fast", "slow"}, "a mode")
      .IntList("sizes", &v.sizes, "sizes")
      .Bool("scrub", &v.scrub, "scrub")
      .Double("interval", &v.interval, "scrub interval")
      .Requires("scrub");
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args);
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

// The FlagError message of parsing `args`, or "" when it parsed.
std::string Error(std::initializer_list<const char*> args) {
  Values v;
  try {
    Parse(v, args);
  } catch (const FlagError& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, DefaultsAreTheValuesBeforeParsing) {
  Values v;
  ASSERT_TRUE(Parse(v, {}));
  EXPECT_FALSE(v.json);
  EXPECT_EQ(v.count, 3);
  EXPECT_EQ(v.seed, 1u);
  EXPECT_EQ(v.rate, 0.5);
  EXPECT_EQ(v.mode, "fast");
  EXPECT_EQ(v.sizes, (std::vector<int>{1, 2}));
}

TEST(Flags, EveryTypeParses) {
  Values v;
  ASSERT_TRUE(Parse(v, {"--json", "--count=-7", "--seed=18446744073709551615",
                        "--rate=1e-3", "--out=a=b.json", "--mode=slow",
                        "--sizes=4,8,16", "--scrub", "--interval=5"}));
  EXPECT_TRUE(v.json);
  EXPECT_EQ(v.count, -7);
  EXPECT_EQ(v.seed, UINT64_MAX);
  EXPECT_EQ(v.rate, 1e-3);
  EXPECT_EQ(v.out, "a=b.json");
  EXPECT_EQ(v.mode, "slow");
  EXPECT_EQ(v.sizes, (std::vector<int>{4, 8, 16}));
  EXPECT_EQ(v.interval, 5.0);
}

TEST(Flags, UnknownFlagIsNamed) {
  EXPECT_EQ(Error({"--cuont=3"}), "unknown flag --cuont for prog (see --help)");
}

TEST(Flags, PositionalArgumentIsRejected) {
  EXPECT_NE(Error({"stray"}).find("unexpected argument 'stray'"),
            std::string::npos);
  EXPECT_NE(Error({"-json"}).find("unexpected argument '-json'"),
            std::string::npos);
}

TEST(Flags, SpaceInsteadOfEqualsIsRejected) {
  EXPECT_EQ(Error({"--count", "300"}),
            "--count needs a value: write --count=300");
}

TEST(Flags, ValuesMustParseInFull) {
  EXPECT_EQ(Error({"--seed=abc"}), "--seed=abc: not a 64-bit unsigned integer");
  EXPECT_EQ(Error({"--count=12x"}), "--count=12x: not a 32-bit integer");
  EXPECT_EQ(Error({"--count="}), "--count=: not a 32-bit integer");
  EXPECT_EQ(Error({"--count= 4"}), "--count= 4: not a 32-bit integer");
  EXPECT_EQ(Error({"--seed=-1"}), "--seed=-1: not a 64-bit unsigned integer");
  EXPECT_EQ(Error({"--rate=0.5s"}), "--rate=0.5s: not a double");
  EXPECT_EQ(Error({"--rate=nan"}), "--rate=nan: not a finite number");
  EXPECT_EQ(Error({"--mode=medium"}), "--mode=medium: not one of fast|slow");
  EXPECT_EQ(Error({"--sizes=1,,2"}), "--sizes=1,,2: not a 32-bit integer");
}

TEST(Flags, ValuesMustFitTheirType) {
  EXPECT_NE(Error({"--count=2147483648"}).find("out of range"),
            std::string::npos);
  EXPECT_NE(Error({"--seed=18446744073709551616"}).find("out of range"),
            std::string::npos);
  EXPECT_NE(Error({"--rate=1e999"}).find("out of range"), std::string::npos);
  EXPECT_EQ(Error({"--count=-2147483648"}), "");
}

TEST(Flags, BoolTakesNoValue) {
  EXPECT_EQ(Error({"--json=1"}), "--json takes no value (got --json=1)");
  EXPECT_EQ(Error({"--help=1"}), "--help takes no value (got --help=1)");
}

TEST(Flags, RepeatedFlagIsRejected) {
  EXPECT_EQ(Error({"--count=1", "--count=2"}), "--count given twice");
}

TEST(Flags, DependentFlagNeedsItsRequirement) {
  EXPECT_EQ(Error({"--interval=5"}), "--interval requires --scrub");
  EXPECT_EQ(Error({"--scrub", "--interval=5"}), "");
}

TEST(Flags, RequirementAtItsDefaultDoesNotCount) {
  FlagSet flags("prog", "");
  double rate = 0.0;
  double until = 100.0;
  flags.Double("rate", &rate, "").Double("until", &until, "").Requires("rate");
  const char* argv[] = {"prog", "--rate=0", "--until=5"};
  try {
    flags.Parse(3, argv);
    FAIL() << "expected a FlagError";
  } catch (const FlagError& e) {
    EXPECT_EQ(std::string(e.what()),
              "--until requires --rate set to other than its default 0");
  }
}

TEST(Flags, HelpChecksTheLineThenPrintsTheTable) {
  Values v;
  EXPECT_NE(Error({"--help", "--cuont=3"}).find("unknown flag --cuont"),
            std::string::npos);
  testing::internal::CaptureStdout();
  EXPECT_FALSE(Parse(v, {"--count=9", "--help"}));
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_NE(help.find("usage: prog"), std::string::npos);
  EXPECT_NE(help.find("--count=INT"), std::string::npos);
  EXPECT_NE(help.find("a count (default 3)"), std::string::npos);
  EXPECT_NE(help.find("--mode=fast|slow"), std::string::npos);
  EXPECT_NE(help.find("[requires --scrub]"), std::string::npos);
}

TEST(Flags, GivenReportsTheLastParse) {
  FlagSet flags("prog", "");
  int count = 0;
  flags.Int("count", &count, "");
  const char* argv[] = {"prog", "--count=0"};
  ASSERT_TRUE(flags.Parse(2, argv));
  EXPECT_TRUE(flags.Given("count"));
  ASSERT_TRUE(flags.Parse(1, argv));
  EXPECT_FALSE(flags.Given("count"));
}

TEST(Flags, RunCliMapsInvalidArgumentToExitTwo) {
  EXPECT_EQ(RunCli([] { return 0; }), 0);
  EXPECT_EQ(RunCli([] { return 1; }), 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(RunCli([]() -> int { throw std::invalid_argument("bad knob"); }), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "error: bad knob\n");
}

TEST(Flags, CommandLineHasSeesNamesWithOrWithoutValues) {
  const char* argv[] = {"prog", "--federation=2", "--json", "x"};
  const CommandLine line(4, argv);
  EXPECT_TRUE(line.Has("federation"));
  EXPECT_TRUE(line.Has("json"));
  EXPECT_FALSE(line.Has("x"));
  EXPECT_FALSE(line.Has("mttdl"));
}

}  // namespace
}  // namespace silica
