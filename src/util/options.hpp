// Tiny command-line option parser for the examples and benchmark binaries.
//
// Supports `--key value`, `--key=value`, and boolean `--flag` forms. Unknown
// options are an error so that typos in experiment scripts fail loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hhc::util {

class Options {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Options(int argc, const char* const* argv);

  /// Declare an option (for --help text and unknown-option detection).
  /// Returns *this so declarations can be chained.
  Options& describe(const std::string& key, const std::string& help);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// get_int, get_count and get_double throw std::invalid_argument unless
  /// the whole value parses ("2abc" and, for an integer, "1.5" fail).
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// A count or size: get_int() that throws std::invalid_argument on a
  /// negative value instead of letting a cast wrap it to a huge one.
  [[nodiscard]] std::size_t get_count(const std::string& key,
                                      std::size_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// true/1/yes or false/0/no (a bare `--flag` reads true); anything else
  /// throws std::invalid_argument.
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  /// True if --help was passed; prints usage to stdout when called.
  [[nodiscard]] bool help_requested(const std::string& program_summary) const;

  /// Throws std::invalid_argument if any parsed key was never described.
  void reject_unknown() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> described_;
  std::string program_;
};

}  // namespace hhc::util
