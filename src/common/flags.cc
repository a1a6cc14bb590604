#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace silica {
namespace {

// The whole of `text` as a T: no sign on an unsigned, no blanks, no suffix, no
// overflow, and a finite double.
template <typename T>
T ParseNumber(const std::string& text, const char* kind) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw FlagError(std::string("out of range for ") + kind);
  }
  if (ec != std::errc() || ptr != end) {
    throw FlagError(std::string("not ") + kind);
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      throw FlagError("not a finite number");
    }
  }
  return value;
}

// Shortest text that reads back as the same value (60, 0.05, 1e+30).
template <typename T>
std::string Show(T value) {
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

template <typename T>
std::function<void(const std::string&)> Setter(T* value, const char* kind) {
  return [value, kind](const std::string& text) { *value = ParseNumber<T>(text, kind); };
}

template <typename T>
std::function<std::string()> Shower(const T* value) {
  return [value] { return Show(*value); };
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    out += (i == 0 ? "" : sep) + parts[i];
  }
  return out;
}

}  // namespace

CommandLine::CommandLine(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    Token token{argv[i], "", std::nullopt};
    if (token.text.size() > 2 && token.text.compare(0, 2, "--") == 0 && token.text[2] != '=') {
      const auto eq = token.text.find('=');
      token.name = token.text.substr(2, eq == std::string::npos ? eq : eq - 2);
      if (eq != std::string::npos) {
        token.value = token.text.substr(eq + 1);
      }
    }
    tokens_.push_back(std::move(token));
  }
}

bool CommandLine::Has(std::string_view name) const {
  for (const Token& token : tokens_) {
    if (token.name == name) {
      return true;
    }
  }
  return false;
}

FlagSet& FlagSet::Add(std::string name, std::string type, std::string help,
                      std::function<void(const std::string&)> set,
                      std::function<std::string()> show) {
  std::string default_text = show();
  flags_.push_back({std::move(name), std::move(type), std::move(help), std::move(set),
                    std::move(show), std::move(default_text), "", false});
  return *this;
}

FlagSet& FlagSet::Bool(std::string name, bool* value, std::string help) {
  return Add(std::move(name), "", std::move(help), [value](const std::string&) { *value = true; },
             [value] { return std::string(*value ? "true" : "false"); });
}

FlagSet& FlagSet::Int(std::string name, int* value, std::string help) {
  return Add(std::move(name), "INT", std::move(help), Setter(value, "a 32-bit integer"),
             Shower(value));
}

FlagSet& FlagSet::Uint(std::string name, uint64_t* value, std::string help) {
  return Add(std::move(name), "UINT", std::move(help),
             Setter(value, "a 64-bit unsigned integer"), Shower(value));
}

FlagSet& FlagSet::Double(std::string name, double* value, std::string help) {
  return Add(std::move(name), "NUM", std::move(help), Setter(value, "a double"), Shower(value));
}

FlagSet& FlagSet::String(std::string name, std::string* value, std::string help) {
  return Add(std::move(name), "STR", std::move(help),
             [value](const std::string& text) { *value = text; }, [value] { return *value; });
}

FlagSet& FlagSet::Enum(std::string name, std::string* value, std::vector<std::string> choices,
                       std::string help) {
  const std::string type = Join(choices, "|");
  return Add(
      std::move(name), type, std::move(help),
      [value, choices, type](const std::string& text) {
        for (const std::string& choice : choices) {
          if (text == choice) {
            *value = text;
            return;
          }
        }
        throw FlagError("not one of " + type);
      },
      [value] { return *value; });
}

FlagSet& FlagSet::IntList(std::string name, std::vector<int>* value, std::string help) {
  return Add(
      std::move(name), "INT,INT,...", std::move(help),
      [value](const std::string& text) {
        std::vector<int> parsed;
        for (size_t start = 0, comma = 0; comma != std::string::npos; start = comma + 1) {
          comma = text.find(',', start);
          parsed.push_back(ParseNumber<int>(text.substr(start, comma - start), "a 32-bit integer"));
        }
        *value = std::move(parsed);
      },
      [value] {
        std::vector<std::string> parts;
        for (const int v : *value) {
          parts.push_back(Show(v));
        }
        return Join(parts, ",");
      });
}

FlagSet& FlagSet::Requires(std::string flag) {
  flags_.back().requires_flag = std::move(flag);
  return *this;
}

FlagSet::Flag* FlagSet::Find(std::string_view name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

bool FlagSet::Parse(const CommandLine& line) {
  for (Flag& flag : flags_) {
    flag.given = false;
  }
  bool help = false;
  const auto& tokens = line.tokens();
  for (size_t i = 0; i < tokens.size(); ++i) {
    const CommandLine::Token& token = tokens[i];
    if (token.name.empty()) {
      throw FlagError("unexpected argument '" + token.text +
                      "' (flags take the form --name=value)");
    }
    Flag* flag = Find(token.name);
    if (flag == nullptr && token.name != "help") {
      throw FlagError("unknown flag --" + token.name + " for " + program_ + " (see --help)");
    }
    const bool is_bool = flag == nullptr || flag->type.empty();
    if (is_bool && token.value) {
      throw FlagError("--" + token.name + " takes no value (got " + token.text + ")");
    }
    if (flag == nullptr) {
      help = true;
      continue;
    }
    if (flag->given) {
      throw FlagError("--" + flag->name + " given twice");
    }
    flag->given = true;
    if (!is_bool && !token.value) {
      const bool space = i + 1 < tokens.size() && tokens[i + 1].name.empty();
      throw FlagError("--" + flag->name + " needs a value: write --" + flag->name + "=" +
                      (space ? tokens[i + 1].text : flag->type));
    }
    try {
      flag->set(token.value.value_or(""));
    } catch (const FlagError& e) {
      throw FlagError(token.text + ": " + e.what());
    }
  }
  for (const Flag& flag : flags_) {
    const Flag* required = flag.given ? Find(flag.requires_flag) : nullptr;
    if (required != nullptr && !required->given) {
      throw FlagError("--" + flag.name + " requires --" + required->name);
    }
    if (required != nullptr && required->show() == required->default_text) {
      throw FlagError("--" + flag.name + " requires --" + required->name +
                      " set to other than its default " + required->default_text);
    }
  }
  if (help) {
    std::fputs(Help().c_str(), stdout);
  }
  return !help;
}

bool FlagSet::Given(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      return flag.given;
    }
  }
  return false;
}

std::string FlagSet::Help() const {
  constexpr size_t kColumn = 32;
  std::string out = "usage: " + program_ + " [--flag=value ...]\n" + about_ + "\n\nflags:\n";
  const auto line = [&](const std::string& left, const std::string& text) {
    out += left.size() < kColumn ? left + std::string(kColumn - left.size(), ' ')
                                 : left + "\n" + std::string(kColumn, ' ');
    out += text + "\n";
  };
  for (const Flag& flag : flags_) {
    std::string text = flag.help;
    if (!flag.type.empty() && !flag.default_text.empty()) {
      text += " (default " + flag.default_text + ")";
    }
    if (!flag.requires_flag.empty()) {
      text += " [requires --" + flag.requires_flag + "]";
    }
    line("  --" + flag.name + (flag.type.empty() ? "" : "=" + flag.type), text);
  }
  line("  --help", "print this help after checking the rest of the line");
  return out;
}

int RunCli(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace silica
