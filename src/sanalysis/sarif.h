// Structured diagnostic output: SARIF 2.1.0 and a compact JSON form.
//
// SARIF (the Static Analysis Results Interchange Format) is the
// interchange schema code hosts ingest for inline annotation. One run is
// emitted, tool "csan", with a rule catalog built from the DiagCodes that
// actually fired; each Diagnostic becomes a result whose notes map to
// relatedLocations (the witness trail). Locations with no known source
// position (line 0) carry only the artifact, per the spec's "region is
// optional" rule.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/support/diag.h"

namespace cssame::sanalysis {

/// Renders the diagnostics as a SARIF 2.1.0 log (one run). `artifactUri`
/// names the analyzed source file in every location.
[[nodiscard]] std::string toSarif(const std::vector<Diagnostic>& diags,
                                  std::string_view artifactUri);

/// Compact machine-readable form: an array of {code, severity, line,
/// column, message, notes[]} objects. Stable and dependency-free, for
/// scripting against the analyzer without a SARIF reader.
[[nodiscard]] std::string toJson(const std::vector<Diagnostic>& diags,
                                 std::string_view artifactUri);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
[[nodiscard]] std::string jsonEscape(std::string_view s);

/// Appends jsonEscape(s) to `out` without a temporary; runs of bytes that
/// need no escape are copied in one append.
void appendJsonEscaped(std::string& out, std::string_view s);

}  // namespace cssame::sanalysis
