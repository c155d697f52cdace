//===- SelfTime.h - Self time of trace spans --------------------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the `trace_event` JSON that observe::TraceSession::writeJson
/// emits (one event per line) into per-span-name totals:
///
///   * self time — a span's duration minus the part of its interval that
///     its child spans on the same thread cover;
///   * inclusive time — a span's duration, counted only when no enclosing
///     span on the same thread has the same name, so recursive spans such
///     as `synth/dfs` count once.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_PERFBENCH_SELFTIME_H
#define STENSO_PERFBENCH_SELFTIME_H

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// One complete ('X') span.  Name is "category/name".
struct Span {
  std::string Name;
  uint32_t Tid = 0;
  int64_t StartNs = 0;
  int64_t DurNs = 0;
  /// Numeric args only; text args are skipped.
  std::vector<std::pair<std::string, double>> Args;

  double arg(std::string_view Key, double Default = 0) const;
};

/// Parses the complete spans of a TraceSession::writeJson document.
/// Instants and any line that is not a complete span are skipped.
std::vector<Span> parseTraceSpans(std::string_view Json);

struct SpanTotals {
  int64_t SelfNs = 0;
  int64_t InclusiveNs = 0;
  int64_t Count = 0;
};

/// Per span name, self and (recursion-collapsed) inclusive time.  Spans
/// nest per thread: a span's parent is the innermost span on its thread
/// whose interval contains its start.
std::map<std::string, SpanTotals> spanTotals(std::vector<Span> Spans);

} // namespace perfbench

#endif // STENSO_PERFBENCH_SELFTIME_H
