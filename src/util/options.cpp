#include "util/options.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace hhc::util {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Parses all of `text` with `parse` (std::stoll or std::stod); anything it
// leaves unconsumed, or cannot parse, is an error naming the option.
template <typename Parse>
auto parse_whole(const std::string& key, const std::string& text,
                 const char* expected, Parse parse) {
  std::size_t used = 0;
  try {
    const auto value = parse(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("option --" + key + " expects " + expected +
                              ", got: " + text);
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is another option or absent.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

Options& Options::describe(const std::string& key, const std::string& help) {
  described_.emplace_back(key, help);
  return *this;
}

bool Options::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "an integer",
                     [](const std::string& text, std::size_t* used) {
                       return std::stoll(text, used);
                     });
}

std::size_t Options::get_count(const std::string& key,
                               std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::int64_t value = get_int(key, 0);
  if (value < 0) {
    throw std::invalid_argument("option --" + key +
                                " expects a count >= 0, got: " + get(key, ""));
  }
  return static_cast<std::size_t>(value);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_whole(key, it->second, "a number",
                     [](const std::string& text, std::size_t* used) {
                       return std::stod(text, used);
                     });
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw std::invalid_argument("option --" + key +
                              " expects true/false, 1/0 or yes/no, got: " + v);
}

bool Options::help_requested(const std::string& program_summary) const {
  if (!has("help")) return false;
  std::printf("%s\n\nusage: %s [--option value]...\n", program_summary.c_str(),
              program_.c_str());
  for (const auto& [key, help] : described_) {
    std::printf("  --%-24s %s\n", key.c_str(), help.c_str());
  }
  return true;
}

void Options::reject_unknown() const {
  for (const auto& [key, value] : values_) {
    (void)value;
    if (key == "help") continue;
    const bool known =
        std::any_of(described_.begin(), described_.end(),
                    [&](const auto& d) { return d.first == key; });
    if (!known) throw std::invalid_argument("unknown option --" + key);
  }
}

}  // namespace hhc::util
