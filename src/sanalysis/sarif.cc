#include "src/sanalysis/sarif.h"

#include <algorithm>
#include <map>

namespace cssame::sanalysis {

namespace {

const char* severityLevel(DiagSeverity sev) {
  switch (sev) {
    case DiagSeverity::Note: return "note";
    case DiagSeverity::Warning: return "warning";
    case DiagSeverity::Error: return "error";
  }
  return "warning";
}

/// A SARIF physicalLocation. SourceLoc columns can be 0 ("whole line");
/// SARIF requires startColumn >= 1, so clamp. Invalid locations (line 0)
/// emit only the artifact reference — the spec allows a region-free
/// physicalLocation.
std::string physicalLocation(SourceLoc loc, std::string_view uri) {
  std::string out = "{\"artifactLocation\":{\"uri\":\"";
  out += jsonEscape(uri);
  out += "\"}";
  if (loc.valid()) {
    out += ",\"region\":{\"startLine\":" + std::to_string(loc.line) +
           ",\"startColumn\":" + std::to_string(std::max(1u, loc.column)) +
           "}";
  }
  out += "}";
  return out;
}

std::string locationObj(SourceLoc loc, std::string_view uri,
                        const std::string* message) {
  std::string out = "{\"physicalLocation\":" + physicalLocation(loc, uri);
  if (message != nullptr)
    out += ",\"message\":{\"text\":\"" + jsonEscape(*message) + "\"}";
  out += "}";
  return out;
}

}  // namespace

void appendJsonEscaped(std::string& out, std::string_view s) {
  std::size_t plain = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char esc[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendJsonEscaped(out, s);
  return out;
}

std::string toSarif(const std::vector<Diagnostic>& diags,
                    std::string_view artifactUri) {
  // Rule catalog: one entry per distinct code present, in first-seen
  // order; results refer back by index.
  std::vector<DiagCode> rules;
  std::map<DiagCode, std::size_t> ruleIndex;
  for (const Diagnostic& d : diags)
    if (ruleIndex.emplace(d.code, rules.size()).second)
      rules.push_back(d.code);

  std::string out;
  out +=
      "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"csan\",\"informationUri\":"
      "\"https://example.invalid/cssame/csan\","
      "\"version\":\"1.0.0\",\"rules\":[";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i != 0) out += ",";
    out += "{\"id\":\"";
    out += diagCodeName(rules[i]);
    out += "\",\"shortDescription\":{\"text\":\"";
    out += jsonEscape(diagCodeDescription(rules[i]));
    out += "\"}}";
  }
  out += "]}},\"results\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) out += ",";
    out += "{\"ruleId\":\"";
    out += diagCodeName(d.code);
    out += "\",\"ruleIndex\":" + std::to_string(ruleIndex.at(d.code));
    out += ",\"level\":\"";
    out += severityLevel(d.severity);
    out += "\",\"message\":{\"text\":\"" + jsonEscape(d.message) + "\"}";
    out += ",\"locations\":[" + locationObj(d.loc, artifactUri, nullptr) +
           "]";
    if (!d.notes.empty()) {
      out += ",\"relatedLocations\":[";
      for (std::size_t j = 0; j < d.notes.size(); ++j) {
        if (j != 0) out += ",";
        out += locationObj(d.notes[j].loc, artifactUri,
                           &d.notes[j].message);
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}]}";
  return out;
}

std::string toJson(const std::vector<Diagnostic>& diags,
                   std::string_view artifactUri) {
  std::string out = "{\"file\":\"" + jsonEscape(artifactUri) +
                    "\",\"diagnostics\":[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    if (i != 0) out += ",";
    out += "{\"code\":\"";
    out += diagCodeName(d.code);
    out += "\",\"severity\":\"";
    out += severityLevel(d.severity);
    out += "\",\"line\":" + std::to_string(d.loc.line) +
           ",\"column\":" + std::to_string(d.loc.column);
    out += ",\"message\":\"" + jsonEscape(d.message) + "\",\"notes\":[";
    for (std::size_t j = 0; j < d.notes.size(); ++j) {
      if (j != 0) out += ",";
      out += "{\"line\":" + std::to_string(d.notes[j].loc.line) +
             ",\"column\":" + std::to_string(d.notes[j].loc.column) +
             ",\"message\":\"" + jsonEscape(d.notes[j].message) + "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace cssame::sanalysis
