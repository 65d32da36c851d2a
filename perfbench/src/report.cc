#include "report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string Report::Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Report::Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Report::ToJson() const {
  std::string out = "{\"info\": {";
  const char* sep = "";
  for (const auto& [k, v] : info_) {
    out += sep + Quote(k) + ": " + v;
    sep = ", ";
  }
  out += "}, \"series\": {";
  sep = "";
  for (const auto& [k, samples] : series_) {
    out += sep + Quote(k) + ": [";
    const char* inner = "";
    for (double s : samples) {
      out += inner + Num(s);
      inner = ",";
    }
    out += "]";
    sep = ", ";
  }
  out += "}, \"values\": {";
  sep = "";
  for (const auto& [k, v] : values_) {
    out += sep + Quote(k) + ": " + Num(v);
    sep = ", ";
  }
  out += "}, \"checks\": [";
  sep = "";
  for (const auto& c : checks_) {
    out += sep;
    out += "{\"name\": " + Quote(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + Quote(c.detail) + "}";
    sep = ", ";
  }
  out += "], \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + "}";
  return out;
}

}  // namespace perfbench
