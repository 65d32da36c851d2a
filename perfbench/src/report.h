// The raw result of one benchmark run, printed as one JSON document on
// stdout: host facts, raw latency samples, scalar measurements, and the
// outcome of every correctness check. perfbench/run.py turns it into the
// reported metrics (median and tail percentiles are computed there).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Info(const std::string& key, const std::string& value) {
    info_[key] = Quote(value);
  }
  void Info(const std::string& key, double value) { info_[key] = Num(value); }

  /// Raw samples of one latency or duration series.
  void Series(const std::string& name, const std::vector<double>& samples) {
    series_[name] = samples;
  }
  /// One scalar measurement (end-to-end or per-layer).
  void Value(const std::string& name, double value) { values_[name] = value; }

  /// Records one correctness check; a failed check fails the run.
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }

  /// Operations attempted and failed (non-OK status, cap violation, or
  /// dropped arrival).
  void Attempt(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::string ToJson() const;

  static std::string Quote(const std::string& s);
  static std::string Num(double v);

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, std::string> info_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
  std::vector<CheckResult> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
