#include "obs/exporters.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace oocgemm::obs {

namespace {

std::string RenderLabels(const Labels& labels, const char* extra_key = nullptr,
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;  // le bounds never need escaping
    out += '"';
  }
  out += '}';
  return out;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  out += '"';
}

void AppendJsonLabels(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    AppendJsonString(out, k);
    out += ':';
    AppendJsonString(out, v);
  }
  out += '}';
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:
        // The exposition format only defines the three escapes above; any
        // other control byte (tenant ids are arbitrary) would corrupt the
        // line structure, so replace it instead of passing it through.
        if (static_cast<unsigned char>(c) < 0x20) {
          out += '_';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatMetricValue(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string ToPrometheusText(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const MetricFamily& f : snapshot.families) {
    // Prometheus counter convention: the exposition name carries _total
    // once, whether or not the registry name already ends in it.
    const std::string name =
        f.kind == MetricKind::kCounter && !f.name.ends_with("_total")
            ? f.name + "_total"
            : f.name;
    out += "# HELP " + name + " " + (f.help.empty() ? f.name : f.help) + "\n";
    out += "# TYPE " + name + " " + MetricKindName(f.kind) + "\n";
    for (const MetricPoint& p : f.points) {
      if (f.kind != MetricKind::kHistogram) {
        out += name + RenderLabels(p.labels) + " " +
               FormatMetricValue(p.value) + "\n";
        continue;
      }
      const HistogramSnapshot& h = p.histogram;
      std::int64_t cumulative = 0;
      for (const HistogramSnapshot::Bucket& b : h.buckets) {
        cumulative += b.count;
        out += name + "_bucket" +
               RenderLabels(p.labels, "le", FormatMetricValue(b.upper)) + " " +
               FormatMetricValue(static_cast<double>(cumulative)) + "\n";
      }
      out += name + "_bucket" + RenderLabels(p.labels, "le", "+Inf") + " " +
             FormatMetricValue(static_cast<double>(h.count)) + "\n";
      out += name + "_sum" + RenderLabels(p.labels) + " " +
             FormatMetricValue(h.sum) + "\n";
      out += name + "_count" + RenderLabels(p.labels) + " " +
             FormatMetricValue(static_cast<double>(h.count)) + "\n";
    }
  }
  return out;
}

std::string ToJson(const RegistrySnapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first_family = true;
  for (const MetricFamily& f : snapshot.families) {
    if (!first_family) out += ',';
    first_family = false;
    out += "{\"name\":";
    AppendJsonString(out, f.name);
    out += ",\"kind\":";
    AppendJsonString(out, MetricKindName(f.kind));
    out += ",\"help\":";
    AppendJsonString(out, f.help);
    out += ",\"points\":[";
    bool first_point = true;
    for (const MetricPoint& p : f.points) {
      if (!first_point) out += ',';
      first_point = false;
      out += "{\"labels\":";
      AppendJsonLabels(out, p.labels);
      if (f.kind != MetricKind::kHistogram) {
        out += ",\"value\":" + FormatMetricValue(p.value);
      } else {
        const HistogramSnapshot& h = p.histogram;
        out += ",\"count\":" + FormatMetricValue(static_cast<double>(h.count));
        out += ",\"sum\":" + FormatMetricValue(h.sum);
        out += ",\"min\":" + FormatMetricValue(h.min);
        out += ",\"max\":" + FormatMetricValue(h.max);
        out += ",\"p50\":" + FormatMetricValue(h.Quantile(0.50));
        out += ",\"p95\":" + FormatMetricValue(h.Quantile(0.95));
        out += ",\"p99\":" + FormatMetricValue(h.Quantile(0.99));
        out += ",\"buckets\":[";
        bool first_bucket = true;
        for (const HistogramSnapshot::Bucket& b : h.buckets) {
          if (!first_bucket) out += ',';
          first_bucket = false;
          out += "{\"le\":" + FormatMetricValue(b.upper) +
                 ",\"count\":" + FormatMetricValue(static_cast<double>(b.count)) +
                 "}";
        }
        out += ']';
      }
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out << contents;
    if (!out.good()) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::Ok();
}

}  // namespace oocgemm::obs
