#include "obs/trace_json.h"

#include "obs/event_trace.h"
#include "util/types.h"

#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

namespace its::obs {

namespace {

/// Microseconds with nanosecond precision (Chrome's ts unit is µs).
std::string us(its::SimTime ns) {
  std::ostringstream ss;
  ss << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
  return ss.str();
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // strip control chars
    out += c;
  }
  return out;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const EventTrace& trace,
                        const ExportOptions& opts) {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Track-name metadata: one per pid seen, plus the device track.
  std::unordered_set<its::Pid> named;
  auto name_track = [&](its::Pid pid) {
    if (!named.insert(pid).second) return;
    std::string label;
    if (pid == kDevicePid)
      label = "dma";
    else if (pid < opts.process_names.size())
      label = opts.process_names[pid];
    else
      label = "pid " + std::to_string(pid);
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << pid << ",\"args\":{\"name\":\"" << escape(label)
       << "\"}}";
  };

  for (const Event& e : trace.events()) {
    name_track(e.pid);
    sep();
    const EventKindInfo& info = kind_info(e.kind);
    os << "{\"name\":\"" << info.slice << "\",";
    switch (info.phase) {
      case ChromePhase::kBegin:
        os << "\"ph\":\"B\",\"ts\":" << us(e.ts);
        break;
      case ChromePhase::kEnd:
        os << "\"ph\":\"E\",\"ts\":" << us(e.ts);
        break;
      case ChromePhase::kComplete:
        // The recorded stamp is the window's end; draw the slice over it.
        os << "\"ph\":\"X\",\"ts\":" << us(e.ts >= e.b ? e.ts - e.b : 0)
           << ",\"dur\":" << us(e.b);
        break;
      case ChromePhase::kInstant:
        os << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << us(e.ts);
        break;
    }
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.pid << ",\"args\":{\"a\":"
       << e.a << ",\"b\":" << e.b << ",\"c\":" << e.c << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ns\"";
  if (!opts.policy.empty())
    os << ",\"otherData\":{\"policy\":\"" << escape(opts.policy) << "\"}";
  os << "}\n";
}

void save_chrome_trace(const std::string& path, const EventTrace& trace,
                       const ExportOptions& opts) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("trace_json: cannot write " + path);
  write_chrome_trace(f, trace, opts);
  if (!f) throw std::runtime_error("trace_json: write failed for " + path);
}

namespace {

/// Extracts the value substring after `"key":` inside one JSON object.
std::string_view field_of(std::string_view obj, std::string_view key) {
  std::string needle(1, '"');
  needle.append(key).append("\":");
  std::size_t at = obj.find(needle);
  if (at == std::string_view::npos) return {};
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (end < obj.size() && obj[end] == '"') {  // string value
    ++begin;
    end = begin;
    while (end < obj.size() && obj[end] != '"') {
      if (obj[end] == '\\') ++end;
      ++end;
    }
    return obj.substr(begin, end - begin);
  }
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}' &&
         obj[end] != ']')
    ++end;
  return obj.substr(begin, end - begin);
}

}  // namespace

std::vector<ParsedEvent> parse_chrome_trace(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();

  const std::size_t array_at = text.find("\"traceEvents\"");
  if (array_at == std::string::npos)
    throw std::runtime_error("parse_chrome_trace: no traceEvents array");

  std::vector<ParsedEvent> out;
  std::size_t i = text.find('[', array_at);
  if (i == std::string::npos)
    throw std::runtime_error("parse_chrome_trace: malformed traceEvents");
  int array_depth = 0;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c == '[') {
      ++array_depth;
    } else if (c == ']') {
      if (--array_depth == 0) break;
    } else if (c == '{') {
      // One event object: scan to its matching brace (args may nest once).
      int depth = 0;
      std::size_t start = i;
      for (; i < text.size(); ++i) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}' && --depth == 0) break;
      }
      if (depth != 0)
        throw std::runtime_error("parse_chrome_trace: unterminated object");
      std::string_view obj(text.data() + start, i - start + 1);
      ParsedEvent e;
      e.name = std::string(field_of(obj, "name"));
      e.ph = std::string(field_of(obj, "ph"));
      std::string_view ts = field_of(obj, "ts");
      if (!ts.empty()) e.ts_us = std::stod(std::string(ts));
      std::string_view pid = field_of(obj, "pid");
      if (!pid.empty())
        e.pid = static_cast<its::Pid>(std::stoull(std::string(pid)));
      out.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace its::obs
