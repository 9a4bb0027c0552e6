#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace logcc::util {
namespace {

Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()),
             const_cast<char**>(args.data()));
}

TEST(Cli, EqualsSyntax) {
  Cli cli = make_cli({"--n=100", "--name=foo"});
  EXPECT_EQ(cli.get_int("n", 1), 100);
  EXPECT_EQ(cli.get_string("name", "bar"), "foo");
}

TEST(Cli, SpaceSyntax) {
  Cli cli = make_cli({"--n", "250"});
  EXPECT_EQ(cli.get_int("n", 1), 250);
}

TEST(Cli, Defaults) {
  Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_double("p", 0.5), 0.5);
  EXPECT_EQ(cli.get_string("s", "d"), "d");
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, BareFlag) {
  Cli cli = make_cli({"--verbose"});
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, FlagFalseValues) {
  Cli cli = make_cli({"--verbose=false"});
  EXPECT_FALSE(cli.get_flag("verbose"));
  Cli cli0 = make_cli({"--verbose=0"});
  EXPECT_FALSE(cli0.get_flag("verbose"));
}

TEST(Cli, DoubleParsing) {
  Cli cli = make_cli({"--p=0.125"});
  EXPECT_DOUBLE_EQ(cli.get_double("p", 0), 0.125);
}

TEST(Cli, PositionalArguments) {
  Cli cli = make_cli({"--n=1", "input.txt", "more"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

TEST(CliDeath, BareOptionNeedingAValueAborts) {
  // `--forest --stats` once wrote the forest to a file named "1".
  for (const char* kind : {"string", "int", "double"}) {
    EXPECT_EXIT(
        {
          Cli cli = make_cli({"--forest", "--stats"});
          EXPECT_TRUE(cli.get_flag("stats"));
          if (std::string(kind) == "string") {
            EXPECT_EQ(cli.get_string("forest", ""), "");
          } else if (std::string(kind) == "int") {
            EXPECT_EQ(cli.get_int("forest", 3), 3);
          } else {
            EXPECT_EQ(cli.get_double("forest", 0.5), 0.5);
          }
          cli.finish();
        },
        ::testing::ExitedWithCode(2), "option --forest needs a value")
        << kind;
  }
}

TEST(CliDeath, UnknownOptionAborts) {
  EXPECT_EXIT(
      {
        Cli cli = make_cli({"--bogus=1"});
        (void)cli.get_int("n", 1);
        cli.finish();
      },
      ::testing::ExitedWithCode(2), "unknown option");
}

}  // namespace
}  // namespace logcc::util
