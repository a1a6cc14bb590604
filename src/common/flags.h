// Declarative, strict command-line flags for the tools and benches.
//
// A binary declares each flag once: its name, the variable it writes and a help
// line. The value the variable holds when the flag is declared is its default,
// and --help is generated from the declarations. The only accepted forms are
// --name=value and, for a bool flag, a bare --name. Everything else throws a
// FlagError naming the flag: an unknown flag, a positional argument, "--name
// value", a value that does not parse in full or does not fit its type, a
// value given to a bool flag, a repeated flag, and a flag declared Requires(X)
// without --X. Range checks do not live here: each bound is written once, in
// the validator of the config that owns the field.
//
// Exit codes of every binary: 0 ok, 1 a run verdict (a gate or a divergence),
// 2 a usage or config error. RunCli maps a FlagError, and any other
// std::invalid_argument a config validator throws, to "error: <what>" and 2.
#ifndef SILICA_COMMON_FLAGS_H_
#define SILICA_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace silica {

class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// argv split into tokens. A binary with modes (silica_sim) looks at Has()
// to choose the FlagSet that parses the line.
class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv);

  // True when --name or --name=... appears.
  bool Has(std::string_view name) const;

  struct Token {
    std::string text;                  // as given
    std::string name;                  // after "--"; empty for a positional
    std::optional<std::string> value;  // after "="
  };
  const std::vector<Token>& tokens() const { return tokens_; }

 private:
  std::vector<Token> tokens_;
};

class FlagSet {
 public:
  // `program` names the binary (and mode) in messages and in the usage line;
  // `about` is the paragraph --help prints under it.
  FlagSet(std::string program, std::string about)
      : program_(std::move(program)), about_(std::move(about)) {}

  FlagSet& Bool(std::string name, bool* value, std::string help);
  FlagSet& Int(std::string name, int* value, std::string help);
  FlagSet& Uint(std::string name, uint64_t* value, std::string help);
  FlagSet& Double(std::string name, double* value, std::string help);
  FlagSet& String(std::string name, std::string* value, std::string help);
  FlagSet& Enum(std::string name, std::string* value, std::vector<std::string> choices,
                std::string help);
  FlagSet& IntList(std::string name, std::vector<int>* value, std::string help);
  // The flag declared last is an error unless --`flag` is also given with a
  // value other than its default.
  FlagSet& Requires(std::string flag);

  // Writes every given flag into its variable. Returns false when --help was
  // given: the rest of the line was still checked, and the help is on stdout.
  bool Parse(const CommandLine& line);
  bool Parse(int argc, const char* const* argv) { return Parse(CommandLine(argc, argv)); }
  // Whether the last Parse saw --name.
  bool Given(std::string_view name) const;

  std::string Help() const;

 private:
  struct Flag {
    std::string name;
    std::string type;  // value placeholder in --help; empty for a bool
    std::string help;
    std::function<void(const std::string&)> set;  // parses a value into the variable
    std::function<std::string()> show;            // the variable as text
    std::string default_text;
    std::string requires_flag;
    bool given = false;
  };
  FlagSet& Add(std::string name, std::string type, std::string help,
               std::function<void(const std::string&)> set, std::function<std::string()> show);
  Flag* Find(std::string_view name);

  std::string program_;
  std::string about_;
  std::vector<Flag> flags_;
};

// Runs a binary's body; a std::invalid_argument (a FlagError or a config
// validator's rejection) prints "error: <what>" on stderr and returns 2.
int RunCli(const std::function<int()>& body);

}  // namespace silica

#endif  // SILICA_COMMON_FLAGS_H_
