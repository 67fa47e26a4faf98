// Human-readable and Graphviz renderings of HHC nodes, paths, and
// disjoint-path containers — used by the examples, debugging, and anyone
// who wants to *see* the construction — plus minimal machine-readable
// emitters (CSV rows, a streaming JSON writer) shared by the experiment
// harnesses so their outputs stay mutually consistent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/disjoint.hpp"
#include "core/topology.hpp"

namespace hhc::core {

/// "(X,Y)" with both fields in binary, e.g. "(0110,01)".
[[nodiscard]] std::string format_node(const HhcTopology& net, Node v);

/// "(X,Y) -> (X,Y) -> ..." with one entry per hop.
[[nodiscard]] std::string format_path(const HhcTopology& net, const Path& path);

/// The whole network as a Graphviz `graph` (requires m <= 2 to stay
/// readable/tractable). Clusters are rendered as subgraph clusters;
/// external edges are drawn dashed.
[[nodiscard]] std::string to_dot(const HhcTopology& net);

/// Only the container: the union of the given disjoint paths, one color
/// class per path (edge attribute "color=<i>"), endpoints double-circled.
/// Works for any m since only the container's nodes are emitted.
[[nodiscard]] std::string container_to_dot(const HhcTopology& net,
                                           const DisjointPathSet& set, Node s,
                                           Node t);

/// One RFC 4180 CSV line (no trailing newline): cells joined by commas,
/// quoted and escaped whenever a cell contains a comma, quote, or newline.
[[nodiscard]] std::string csv_row(const std::vector<std::string>& cells);

/// Streaming JSON emitter — enough for flat campaign reports without
/// pulling in a JSON library. Keys/values must alternate correctly inside
/// objects; misuse (e.g. a bare value where a key is due) throws
/// std::logic_error rather than emitting malformed output.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Object key; must be followed by exactly one value or container.
  JsonWriter& key(const std::string& name);
  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  /// The document; throws std::logic_error if containers remain open.
  [[nodiscard]] std::string str() const;

 private:
  enum class Scope { kObject, kArray };
  void comma_for_value();
  void open(Scope scope, char bracket);
  void close(Scope scope, char bracket);

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool key_pending_ = false;
};

/// One row of the unified stats schema shared by every telemetry surface
/// (core::CacheStats, query::ServiceStats, the obs::MetricRegistry export).
/// A row is either a scalar (one number) or a distribution (count +
/// percentile summary); `section` groups related rows ("cache",
/// "cache.orbit", "counter", "latency", ...) so one flat table can carry a
/// whole snapshot without per-producer schemas drifting apart.
struct StatRow {
  enum class Kind { kScalar, kDist };

  std::string section;
  std::string name;
  Kind kind = Kind::kScalar;

  // kScalar: the value; `integral` selects whole-number rendering.
  double value = 0.0;
  bool integral = true;

  // kDist: sample count and the percentile summary (percentiles are
  // meaningless — and rendered empty/omitted — when count == 0).
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

[[nodiscard]] StatRow stat_scalar(std::string section, std::string name,
                                  std::uint64_t value);
[[nodiscard]] StatRow stat_scalar(std::string section, std::string name,
                                  double value);
[[nodiscard]] StatRow stat_dist(std::string section, std::string name,
                                std::uint64_t count, double p50, double p90,
                                double p99, double max);

/// The canonical CSV rendering: header
/// `section,name,value,count,p50,p90,p99,max`, one line per row, cells that
/// don't apply to the row's kind left empty.
[[nodiscard]] std::string stat_rows_csv(const std::vector<StatRow>& rows);

/// The canonical JSON rendering: a top-level array of row objects. Scalars
/// carry {"section","name","value"}; distributions carry
/// {"section","name","count","p50","p90","p99","max"} with the percentile
/// keys omitted when count == 0.
[[nodiscard]] std::string stat_rows_json(const std::vector<StatRow>& rows);

/// Emits the same array into an in-progress document (after a key or as an
/// array element) so callers can embed the rows in a larger report.
void append_stat_rows(JsonWriter& json, const std::vector<StatRow>& rows);

}  // namespace hhc::core
