//===- SelfTime.cpp - Self time of trace spans -----------------------------===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "SelfTime.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_map>

using namespace perfbench;

double Span::arg(std::string_view Key, double Default) const {
  for (const auto &[K, V] : Args)
    if (K == Key)
      return V;
  return Default;
}

namespace {

/// The quoted string value after `"Key":"` in \p Line, or empty.
std::string_view stringField(std::string_view Line, std::string_view Key) {
  std::string Needle = "\"" + std::string(Key) + "\":\"";
  size_t At = Line.find(Needle);
  if (At == std::string_view::npos)
    return {};
  size_t Begin = At + Needle.size();
  size_t End = Line.find('"', Begin);
  return End == std::string_view::npos ? std::string_view()
                                       : Line.substr(Begin, End - Begin);
}

/// The number after `"Key":` in \p Line; false when absent.
bool numberField(std::string_view Line, std::string_view Key, double &Out) {
  std::string Needle = "\"" + std::string(Key) + "\":";
  size_t At = Line.find(Needle);
  if (At == std::string_view::npos)
    return false;
  std::string Text(Line.substr(At + Needle.size(), 32));
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return End != Text.c_str();
}

/// Timestamps are printed in microseconds with three decimals, so the
/// nanosecond value is recovered exactly.
int64_t microsToNanos(double Micros) {
  return static_cast<int64_t>(std::llround(Micros * 1e3));
}

/// Numeric `"key":value` pairs of the args object `{...}` at \p Args.
void parseArgs(std::string_view Args, std::vector<std::pair<std::string, double>> &Out) {
  size_t Pos = 0;
  while ((Pos = Args.find('"', Pos)) != std::string_view::npos) {
    size_t KeyEnd = Args.find('"', Pos + 1);
    if (KeyEnd == std::string_view::npos || KeyEnd + 1 >= Args.size() ||
        Args[KeyEnd + 1] != ':')
      return;
    std::string Key(Args.substr(Pos + 1, KeyEnd - Pos - 1));
    size_t ValueAt = KeyEnd + 2;
    if (ValueAt < Args.size() && Args[ValueAt] == '"') {
      size_t TextEnd = Args.find('"', ValueAt + 1);
      if (TextEnd == std::string_view::npos)
        return;
      Pos = TextEnd + 1;
      continue;
    }
    std::string Text(Args.substr(ValueAt, 32));
    char *End = nullptr;
    double V = std::strtod(Text.c_str(), &End);
    if (End != Text.c_str())
      Out.emplace_back(std::move(Key), V);
    Pos = ValueAt;
  }
}

} // namespace

std::vector<Span> perfbench::parseTraceSpans(std::string_view Json) {
  std::vector<Span> Spans;
  size_t LineStart = 0;
  while (LineStart < Json.size()) {
    size_t LineEnd = Json.find('\n', LineStart);
    if (LineEnd == std::string_view::npos)
      LineEnd = Json.size();
    std::string_view Line = Json.substr(LineStart, LineEnd - LineStart);
    LineStart = LineEnd + 1;
    if (stringField(Line, "ph") != "X")
      continue;
    double Ts = 0, Dur = 0, Tid = 0;
    if (!numberField(Line, "ts", Ts) || !numberField(Line, "dur", Dur) ||
        !numberField(Line, "tid", Tid))
      continue;
    Span S;
    S.Name = std::string(stringField(Line, "cat")) + "/" +
             std::string(stringField(Line, "name"));
    S.Tid = static_cast<uint32_t>(Tid);
    S.StartNs = microsToNanos(Ts);
    S.DurNs = microsToNanos(Dur);
    size_t ArgsAt = Line.find("\"args\":{");
    if (ArgsAt != std::string_view::npos)
      parseArgs(Line.substr(ArgsAt + 8), S.Args);
    Spans.push_back(std::move(S));
  }
  return Spans;
}

std::map<std::string, SpanTotals> perfbench::spanTotals(std::vector<Span> Spans) {
  // Per thread, by start time; at equal starts the longer span is the
  // parent, so it comes first.
  std::sort(Spans.begin(), Spans.end(), [](const Span &A, const Span &B) {
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    if (A.StartNs != B.StartNs)
      return A.StartNs < B.StartNs;
    return A.DurNs > B.DurNs;
  });

  std::map<std::string, SpanTotals> Totals;
  std::vector<SpanTotals *> NameOf(Spans.size());
  std::vector<int64_t> Self(Spans.size());
  std::vector<size_t> Open; // indices of the enclosing spans, outermost first
  std::unordered_map<std::string, int> OpenByName;
  auto EndOf = [&](size_t I) { return Spans[I].StartNs + Spans[I].DurNs; };
  auto Close = [&] {
    --OpenByName[Spans[Open.back()].Name];
    Open.pop_back();
  };

  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (!Open.empty() && Spans[Open.back()].Tid != S.Tid)
      while (!Open.empty())
        Close();
    while (!Open.empty() && EndOf(Open.back()) <= S.StartNs)
      Close();
    SpanTotals &T = Totals[S.Name];
    NameOf[I] = &T;
    Self[I] = S.DurNs;
    ++T.Count;
    if (!Open.empty()) {
      size_t Parent = Open.back();
      Self[Parent] -= std::min(EndOf(I), EndOf(Parent)) - S.StartNs;
    }
    if (OpenByName[S.Name] == 0)
      T.InclusiveNs += S.DurNs;
    ++OpenByName[S.Name];
    Open.push_back(I);
  }
  for (size_t I = 0; I < Spans.size(); ++I)
    NameOf[I]->SelfNs += Self[I];
  return Totals;
}
