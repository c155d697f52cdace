//===- perfbench.cpp - End-to-end synthesis benchmark ----------------------===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs fixed sets of suite programs through evalsuite::synthesizeBenchmark
/// and verifyRunEquivalence, checks every outcome against the checked-in
/// expected outcomes, and prints the end-to-end metrics (untraced run) or
/// the per-layer metrics (traced run) as one JSON object on the last line
/// of stdout.  perfbench/run.py builds this binary and adds the set-up
/// time; README.md defines every metric.
///
///   stenso-perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    --expected FILE [--setup-only]
///   stenso-perfbench --record FILE      (rewrites the expected outcomes)
///
//===----------------------------------------------------------------------===//

#include "SelfTime.h"

#include "dsl/Interpreter.h"
#include "dsl/Parser.h"
#include "evalsuite/Harness.h"
#include "observe/Trace.h"
#include "support/RNG.h"
#include "support/Result.h"
#include "symexec/SymbolicExecutor.h"
#include "synth/Synthesizer.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace stenso;
using evalsuite::BenchmarkDef;
using evalsuite::BenchmarkRun;
using namespace perfbench;

namespace {

/// Per-program wall budget.  Far above the slowest program (scale_dot,
/// about 13 s at jobs=1) so that only a real slowdown or hang aborts a
/// search; an abort is counted as a failure, never skipped.
constexpr double BudgetSeconds = 60;

/// The programs where hole solving and the DFS dominate; every other
/// suite program forms library_heavy.
const std::vector<std::string> SearchHeavyPrograms = {"diag_dot", "scale_dot",
                                                      "mat_vec_prod"};

/// Synthesized once, untimed, before the first timed program so that
/// first-call costs (code paging, allocator growth) land in set-up.
const char *const WarmupProgram = "elem_square";

struct Workload {
  const char *Name;
  int Jobs;
  bool SearchHeavy;
};

const Workload Workloads[] = {
    {"search_heavy", 1, true},
    {"library_heavy", 1, false},
    {"search_parallel", 4, true},
};

struct Expected {
  std::string Abort;
  double OriginalCost = 0;
  double OptimizedCost = 0;
  std::string Source;
};

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

/// Starts a fresh peak-RSS window: returns freed heap pages to the OS and
/// resets the kernel's high-water mark (Linux clear_refs "5").  Without
/// the reset the window is the whole process so far.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// The resident-set high-water mark (VmHWM) since resetPeakRss, in MiB.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // reported in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

std::string formatCost(double C) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", C);
  return Buf;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

synth::SynthesisConfig workloadConfig(int Jobs) {
  // flops, not the evaluation default "measured": MeasuredCostModel times
  // ops on the host, so the chosen program could change from run to run.
  synth::SynthesisConfig Config;
  Config.CostModelName = "flops";
  Config.TimeoutSeconds = BudgetSeconds;
  Config.Jobs = Jobs;
  return Config;
}

//===----------------------------------------------------------------------===//
// Expected outcomes: name \t abort \t original cost \t optimized cost \t source
//===----------------------------------------------------------------------===//

std::map<std::string, Expected> loadExpected(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read expected outcomes '" + Path + "'");
  std::map<std::string, Expected> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F;
    std::stringstream SS(Line);
    for (std::string Field; std::getline(SS, Field, '\t');)
      F.push_back(Field);
    if (F.size() != 5)
      throw std::runtime_error("malformed expected outcome: " + Line);
    Out[F[0]] = Expected{F[1], std::stod(F[2]), std::stod(F[3]), F[4]};
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// One program, one pass
//===----------------------------------------------------------------------===//

struct ProgramRun {
  const BenchmarkDef *Def = nullptr;
  /// synthesizeBenchmark + verifyRunEquivalence.
  double Seconds = 0;
  double VerifySeconds = 0;
  BenchmarkRun Run;
  /// Empty when the outcome matches its expected entry.
  std::string Failure;
};

struct Pass {
  double WallSeconds = 0;
  double CpuSeconds = 0;
  double PeakRssMb = 0;
  std::vector<ProgramRun> Programs;
};

ProgramRun runProgram(const BenchmarkDef &Def,
                      const synth::SynthesisConfig &Config) {
  ProgramRun P;
  P.Def = &Def;
  double T0 = nowSeconds();
  P.Run = evalsuite::synthesizeBenchmark(Def, Config);
  double T1 = nowSeconds();
  evalsuite::verifyRunEquivalence(P.Run);
  double T2 = nowSeconds();
  P.Seconds = T2 - T0;
  P.VerifySeconds = T2 - T1;
  return P;
}

/// The benchmark's own correctness check, outside any timed region: the
/// outcome must equal the expected one (the bit-identical contract of
/// synth::sameSearchOutcome), and original and optimized program must
/// agree under the reference interpreter on inputs drawn from \p Seed.
std::string checkOutcome(const ProgramRun &P, const Expected *E,
                         uint64_t Seed) {
  const synth::SynthesisResult &R = P.Run.Synthesis;
  if (P.Run.Degraded)
    return "degraded: " + P.Run.DegradedReason;
  if (R.Abort != synth::AbortReason::None)
    return std::string("search aborted: ") + synth::toString(R.Abort);
  if (!E)
    return "no expected outcome";
  if (E->Abort != synth::toString(R.Abort) || E->Source != R.OptimizedSource ||
      E->OriginalCost != R.OriginalCost || E->OptimizedCost != R.OptimizedCost)
    return "outcome differs: got '" + R.OptimizedSource + "' at cost " +
           formatCost(R.OptimizedCost) + ", expected '" + E->Source +
           "' at cost " + formatCost(E->OptimizedCost);
  const BenchmarkDef &Def = *P.Def;
  auto Orig = dsl::parseProgram(Def.sourceFor(false), Def.declsFor(false));
  auto Opt = dsl::parseProgram(R.OptimizedSource, Def.declsFor(false));
  if (!Orig || !Opt)
    return "result does not parse at the search shapes";
  RNG Rng(Seed ^ fnv1a(Def.Name));
  for (int Trial = 0; Trial < 2; ++Trial) {
    dsl::InputBinding Inputs =
        evalsuite::makeBenchmarkInputs(Def, /*Full=*/false, Rng);
    RecoverableErrorScope Scope;
    Tensor A = dsl::interpretProgram(*Orig.Prog, Inputs);
    Tensor B = dsl::interpretProgram(*Opt.Prog, Inputs);
    if (Scope.hasError())
      return "interpreter failed: " + Scope.takeError().toString();
    if (!A.allClose(B, 1e-6, 1e-9))
      return "interpreter disagrees on seeded inputs";
  }
  return "";
}

/// Seeded program order for pass \p PassIndex.
std::vector<const BenchmarkDef *>
passOrder(std::vector<const BenchmarkDef *> Programs, uint64_t Seed,
          int PassIndex) {
  RNG Rng(Seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(PassIndex));
  for (size_t I = Programs.size(); I > 1; --I)
    std::swap(Programs[I - 1],
              Programs[static_cast<size_t>(
                  Rng.uniformInt(0, static_cast<int64_t>(I) - 1))]);
  return Programs;
}

/// Span totals of a traced pass, summed over its programs.
struct TraceTotals {
  std::map<std::string, SpanTotals> Spans;
  double SketchesDropped = 0;
  double TracedSeconds = 0;
  uint64_t DroppedEvents = 0;
};

/// One pass over \p Order.  When \p Trace is set, each program runs
/// inside its own TraceSession and its spans are folded into \p Trace
/// after the program's timed region.
Pass runPass(const std::vector<const BenchmarkDef *> &Order,
             const synth::SynthesisConfig &Config,
             TraceTotals *Trace = nullptr) {
  Pass Result;
  resetPeakRss();
  double Wall0 = nowSeconds(), Cpu0 = cpuSeconds();
  for (const BenchmarkDef *Def : Order) {
    if (!Trace) {
      Result.Programs.push_back(runProgram(*Def, Config));
      continue;
    }
    observe::TraceSession Session;
    Session.start();
    Result.Programs.push_back(runProgram(*Def, Config));
    Session.stop();
    Trace->TracedSeconds += Result.Programs.back().Seconds;
    Trace->DroppedEvents += Session.droppedEvents();
    std::ostringstream OS;
    Session.writeJson(OS);
    std::vector<Span> Spans = parseTraceSpans(OS.str());
    for (const Span &S : Spans)
      if (S.Name == "synth/costbound")
        Trace->SketchesDropped += S.arg("dropped");
    for (const auto &[Name, T] : spanTotals(std::move(Spans))) {
      SpanTotals &Sum = Trace->Spans[Name];
      Sum.SelfNs += T.SelfNs;
      Sum.InclusiveNs += T.InclusiveNs;
      Sum.Count += T.Count;
    }
  }
  Result.WallSeconds = nowSeconds() - Wall0;
  Result.CpuSeconds = cpuSeconds() - Cpu0;
  Result.PeakRssMb = peakRssMb();
  return Result;
}

//===----------------------------------------------------------------------===//
// Layer probe: the fixed per-run layers, timed around their entry points
//===----------------------------------------------------------------------===//

struct ProbeTotals {
  double SpecSeconds = 0;
  double LibrarySeconds = 0;
  double CostBoundSeconds = 0;
  int64_t CandidatesTried = 0;
  int64_t Stubs = 0;
  int64_t Sketches = 0;
  int64_t ShapePruned = 0;
};

void probeLayers(const BenchmarkDef &Def, const synth::SynthesisConfig &Config,
                 ProbeTotals &Out) {
  auto Reduced = dsl::parseProgram(Def.sourceFor(false), Def.declsFor(false));
  if (!Reduced)
    throw std::runtime_error("'" + Def.Name + "' does not parse");
  ResourceBudget Budget(ResourceBudget::Limits{Config.TimeoutSeconds,
                                               Config.MaxSymbolicNodes,
                                               Config.MaxSolverCalls});
  sym::ExprContext Ctx;
  Ctx.setBudget(&Budget);
  std::unique_ptr<synth::CostModel> Model =
      synth::makeCostModel(Config.CostModelName);
  synth::ShapeScaler Scaler = Def.scaler();

  double T0 = nowSeconds();
  symexec::SymBinding Bindings =
      symexec::makeInputBindings(*Reduced.Prog, Ctx);
  symexec::SymTensor Phi =
      symexec::symbolicExecute(Reduced.Prog->getRoot(), Ctx, Bindings);
  double T1 = nowSeconds();
  synth::SketchLibrary::Config LibCfg = Config.Library;
  LibCfg.AnalysisPruning = Config.UseAnalysisPruning;
  synth::SketchLibrary Library(*Reduced.Prog, Ctx, Bindings, *Model, Scaler,
                               LibCfg, &Budget);
  double T2 = nowSeconds();
  analysis::CostBoundAnalysis Bound = synth::buildCostBound(
      Library, *Model, Scaler, Bindings, Config.MaxRecursionDepth);
  double T3 = nowSeconds();

  Out.SpecSeconds += T1 - T0;
  Out.LibrarySeconds += T2 - T1;
  Out.CostBoundSeconds += T3 - T2;
  Out.CandidatesTried += Library.getNumCandidatesTried();
  Out.Stubs += static_cast<int64_t>(Library.getStubs().size());
  Out.Sketches += static_cast<int64_t>(Library.getSketches().size());
  Out.ShapePruned += Library.getNumShapePruned();
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

std::string resultJson(bool Correct, int64_t Attempted, int64_t Failed,
                       const std::vector<Metric> &Metrics) {
  std::string J = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  return J + "}}";
}

/// The highest percentile of \p Samples with at least ten samples beyond
/// it.  With ten or fewer samples no percentile qualifies, and the
/// maximum is reported instead.
double tailLatency(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N <= 10 ? Samples.back() : Samples[N - 11];
}

std::string tailLabel(size_t N) {
  if (N <= 10)
    return "maximum (no percentile has 10 samples beyond it)";
  return "p" + std::to_string(100 * (N - 10) / N);
}

/// Search counters summed over one pass, named after their source.
struct Counters {
  int64_t Probes = 0, Hits = 0, Misses = 0, Solved = 0;
  int64_t DfsCalls = 0, Explored = 0, PrunedCost = 0, PrunedSimplification = 0;
  int64_t PrunedCostBound = 0, PrunedOracle = 0;
  int64_t InternLookups = 0, InternHits = 0, InternedNodes = 0;
  int64_t CheckpointCalls = 0, ClockReads = 0;

  explicit Counters(const Pass &P) {
    for (const ProgramRun &R : P.Programs) {
      const synth::SynthesisStats &S = R.Run.Synthesis.Stats;
      Probes += S.SolverCalls;        // HoleSolver::getNumCalls
      Hits += S.SolverCacheHits;      // HoleSolver::getCacheHits
      Misses += S.SolverCacheMisses;  // HoleSolver::getCacheMisses
      Solved += S.SolverSuccesses;    // HoleSolver::getNumSolved
      DfsCalls += S.DfsCalls;
      Explored += S.SketchesExplored;
      PrunedCost += S.PrunedByCost;
      PrunedSimplification += S.PrunedBySimplification;
      PrunedCostBound += S.PrunedByCostBound;
      PrunedOracle += S.AnalysisPrunedSign + S.AnalysisPrunedDegree;
      InternLookups += S.InternLookups;   // ExprContext::getInternLookups
      InternHits += S.InternHits;         // ExprContext::getInternHits
      InternedNodes += S.InternedNodes;   // ExprContext::getNumInternedNodes
      CheckpointCalls += S.CheckpointCalls; // ResourceBudget::getCheckpointCalls
      ClockReads += S.CheckpointClockReads; // ResourceBudget::getClockReads
    }
  }

  /// The counters that repeat exactly between runs at jobs=1.
  std::vector<std::pair<const char *, int64_t>> exactAtJobs1() const {
    return {{"holesolver.probes", Probes},
            {"holesolver.cache_hits", Hits},
            {"holesolver.cache_misses", Misses},
            {"holesolver.solved", Solved},
            {"search.dfs_calls", DfsCalls},
            {"search.sketches_explored", Explored},
            {"search.pruned_cost", PrunedCost},
            {"search.pruned_simplification", PrunedSimplification},
            {"analysis.pruned_costbound", PrunedCostBound},
            {"analysis.pruned_oracle", PrunedOracle},
            {"symbolic.intern_lookups", InternLookups},
            {"symbolic.interned_nodes", InternedNodes}};
  }
};

/// Which layer a span's self time belongs to.
std::string layerOf(const std::string &Span) {
  static const std::map<std::string, std::string> Layers = {
      {"synth/run", "synth"},
      {"synth/spec", "symexec"},
      {"synth/library", "library"},
      {"library/enumerate_stubs", "library"},
      {"library/make_sketches", "library"},
      {"synth/costbound", "analysis"},
      {"synth/search", "search"},
      {"synth/dfs", "search"},
      {"synth/branch", "search"},
      {"holesolver/solve", "holesolver"},
      {"threadpool/task", "threadpool"},
      {"threadpool/help_task", "threadpool"},
      {"harness/synthesize_benchmark", "evalsuite"},
      {"harness/lift", "evalsuite"},
      {"harness/verify", "evalsuite"},
  };
  auto It = Layers.find(Span);
  return It == Layers.end() ? "other" : It->second;
}

const char *const ShareLayers[] = {"library", "holesolver", "search",
                                   "synth",   "analysis",   "symexec",
                                   "evalsuite", "threadpool"};

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool SetupOnly = false;
  std::string ExpectedFile;
  std::string RecordFile;
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "stenso-perfbench: " << Why
            << "\nusage: stenso-perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --expected FILE [--setup-only]\n"
               "       stenso-perfbench --record FILE\n";
  std::exit(2);
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage("missing value for " + A);
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::stoull(Value());
    else if (A == "--seconds")
      O.Seconds = std::stod(Value());
    else if (A == "--trace")
      O.Trace = Value() != "0";
    else if (A == "--expected")
      O.ExpectedFile = Value();
    else if (A == "--setup-only")
      O.SetupOnly = true;
    else if (A == "--record")
      O.RecordFile = Value();
    else
      usage("unknown option " + A);
  }
  return O;
}

/// Writes the expected outcome of every suite program from one jobs=1
/// run.  Refuses to record a run that aborted or failed verification.
int record(const std::string &Path) {
  std::ostringstream Out;
  Out << "# name\tabort\toriginal_cost\toptimized_cost\toptimized_source\n"
         "# Written by stenso-perfbench --record (flops cost model, jobs=1, "
         "60 s budget);\n"
         "# every entry passed verifyRunEquivalence when recorded.\n";
  for (const BenchmarkDef &Def : evalsuite::benchmarkSuite()) {
    ProgramRun P = runProgram(Def, workloadConfig(1));
    const synth::SynthesisResult &R = P.Run.Synthesis;
    std::cerr << Def.Name << ": " << R.OptimizedSource << "  ["
              << P.Seconds << " s]\n";
    if (P.Run.Degraded || R.Abort != synth::AbortReason::None ||
        R.OptimizedSource.find_first_of("\t\n") != std::string::npos) {
      std::cerr << "refusing to record " << Def.Name << "\n";
      return 1;
    }
    Out << Def.Name << '\t' << synth::toString(R.Abort) << '\t'
        << formatCost(R.OriginalCost) << '\t' << formatCost(R.OptimizedCost)
        << '\t' << R.OptimizedSource << '\n';
  }
  std::ofstream(Path) << Out.str();
  return 0;
}

int run(const Options &O) {
  const Workload *W = nullptr;
  for (const Workload &Candidate : Workloads)
    if (O.Workload == Candidate.Name)
      W = &Candidate;
  if (!W)
    usage("unknown workload '" + O.Workload + "'");
  if (O.ExpectedFile.empty())
    usage("--expected is required");

  // Set-up: everything before the first timed synthesis call.
  std::map<std::string, Expected> ExpectedOutcomes = loadExpected(O.ExpectedFile);
  std::vector<const BenchmarkDef *> Programs;
  for (const BenchmarkDef &Def : evalsuite::benchmarkSuite()) {
    bool InSearchSet =
        std::find(SearchHeavyPrograms.begin(), SearchHeavyPrograms.end(),
                  Def.Name) != SearchHeavyPrograms.end();
    if (InSearchSet == W->SearchHeavy)
      Programs.push_back(&Def);
  }
  synth::SynthesisConfig Config = workloadConfig(W->Jobs);
  runProgram(*evalsuite::findBenchmark(WarmupProgram), Config);
  if (O.SetupOnly)
    return 0;

  auto Check = [&](Pass &P, int64_t &Attempted, int64_t &Failed) {
    for (ProgramRun &R : P.Programs) {
      auto It = ExpectedOutcomes.find(R.Def->Name);
      R.Failure = checkOutcome(
          R, It == ExpectedOutcomes.end() ? nullptr : &It->second, O.Seed);
      ++Attempted;
      if (!R.Failure.empty()) {
        ++Failed;
        std::cout << "FAILED " << R.Def->Name << ": " << R.Failure << "\n";
      }
    }
  };
  int64_t Attempted = 0, Failed = 0;

  if (!O.Trace) {
    std::vector<Pass> Passes;
    double Start = nowSeconds();
    do
      Passes.push_back(runPass(passOrder(Programs, O.Seed,
                                         static_cast<int>(Passes.size())),
                               Config));
    while (nowSeconds() - Start < O.Seconds);

    // The tail is taken per pass, so its percentile does not depend on
    // how many passes fit into --seconds.
    std::vector<double> PassWall, PassCpu, PassRss, PassTail, Latencies,
        Improved;
    std::map<std::string, std::vector<double>> ByProgram;
    // One entry per program (every pass must agree), summed in name order
    // so that the geomean repeats to the last digit.
    std::map<std::string, double> LogRatios;
    for (Pass &P : Passes) {
      Check(P, Attempted, Failed);
      PassWall.push_back(P.WallSeconds);
      PassCpu.push_back(P.CpuSeconds);
      PassRss.push_back(P.PeakRssMb);
      std::vector<double> PassLatencies;
      int ImprovedN = 0;
      for (const ProgramRun &R : P.Programs) {
        PassLatencies.push_back(R.Seconds);
        ByProgram[R.Def->Name].push_back(R.Seconds);
        ImprovedN += R.Failure.empty() && R.Run.Synthesis.Improved;
        // A result that costs no flops (dot_trans_2 reduces to its
        // input) counts as one flop, so the ratio stays finite.
        LogRatios.emplace(R.Def->Name,
                          std::log(R.Run.Synthesis.OriginalCost /
                                   std::max(R.Run.Synthesis.OptimizedCost,
                                            1.0)));
      }
      PassTail.push_back(tailLatency(PassLatencies));
      Latencies.insert(Latencies.end(), PassLatencies.begin(),
                       PassLatencies.end());
      Improved.push_back(ImprovedN);
    }
    std::cout << "seconds per program, median over passes:\n";
    for (const auto &[Name, Seconds] : ByProgram) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "  %-28s %8.3f\n", Name.c_str(),
                    median(Seconds));
      std::cout << Buf;
    }
    std::cout << "workload " << W->Name << ": " << Passes.size()
              << " pass(es) of " << Programs.size() << " programs, jobs="
              << W->Jobs << "; latency_tail_s is the "
              << tailLabel(Programs.size()) << " of each pass's "
              << Programs.size() << " samples, median over passes\n";
    double LogRatioSum = 0;
    for (const auto &[Name, LogRatio] : LogRatios)
      LogRatioSum += LogRatio;
    std::vector<Metric> Metrics = {
        {"pass_s", median(PassWall), "s"},
        {"latency_p50_s", median(Latencies), "s"},
        {"latency_tail_s", median(PassTail), "s"},
        {"cpu_s", median(PassCpu), "s"},
        {"peak_rss_mb", median(PassRss), "MB"},
        {"cost_ratio_geomean",
         std::exp(LogRatioSum / static_cast<double>(LogRatios.size())),
         "ratio"},
        {"improved_n", median(Improved), "count"},
        {"verified_frac",
         1.0 - static_cast<double>(Failed) / static_cast<double>(Attempted),
         "fraction"},
    };
    std::cout << resultJson(Failed == 0, Attempted, Failed, Metrics)
              << std::endl;
    return 0;
  }

  // Traced run: an untraced pass, the same programs traced, then the
  // layer probe.  Counters come from the untraced pass; times and shares
  // from the traced one.
  Pass Plain = runPass(passOrder(Programs, O.Seed, 0), Config);
  TraceTotals Trace;
  Pass Traced = runPass(passOrder(Programs, O.Seed, 1), Config, &Trace);
  ProbeTotals Probe;
  for (const BenchmarkDef *Def : Programs)
    probeLayers(*Def, Config, Probe);
  Check(Plain, Attempted, Failed);
  Check(Traced, Attempted, Failed);
  bool Correct = Failed == 0;
  if (Trace.DroppedEvents) {
    std::cout << "FAILED: the trace dropped " << Trace.DroppedEvents
              << " events; self times would be incomplete\n";
    Correct = false;
  }

  Counters C(Plain), CTraced(Traced);
  if (W->Jobs == 1) {
    std::vector<std::string> Moved;
    auto A = C.exactAtJobs1(), B = CTraced.exactAtJobs1();
    for (size_t I = 0; I < A.size(); ++I)
      if (A[I].second != B[I].second)
        Moved.push_back(A[I].first);
    std::cout << "counters exact at jobs=1 repeat between the untraced and "
                 "the traced pass: "
              << (Moved.empty() ? "yes" : "NO:");
    for (const std::string &M : Moved)
      std::cout << ' ' << M;
    std::cout << "\n";
  }

  auto Self = [&](const std::string &Name) {
    auto It = Trace.Spans.find(Name);
    return It == Trace.Spans.end() ? 0.0 : It->second.SelfNs / 1e9;
  };
  auto Inclusive = [&](const std::string &Name) {
    auto It = Trace.Spans.find(Name);
    return It == Trace.Spans.end() ? 0.0 : It->second.InclusiveNs / 1e9;
  };
  std::map<std::string, double> LayerSelf;
  double SelfTotal = 0;
  for (const auto &[Name, T] : Trace.Spans) {
    LayerSelf[layerOf(Name)] += T.SelfNs / 1e9;
    SelfTotal += T.SelfNs / 1e9;
  }
  std::cout << "span self time by layer (" << W->Name << ", traced pass, "
            << SelfTotal << " s in spans):\n";
  for (const auto &[Layer, Seconds] : LayerSelf) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "  %-12s %9.3f s  %5.1f%%\n",
                  Layer.c_str(), Seconds, 100 * Seconds / SelfTotal);
    std::cout << Buf;
  }
  std::cout << "memo-hit share per program (HoleSolver cache hits / probes):\n";
  for (const ProgramRun &R : Plain.Programs) {
    const synth::SynthesisStats &S = R.Run.Synthesis.Stats;
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "  %-28s %5.1f%% of %lld probes\n",
                  R.Def->Name.c_str(),
                  S.SolverCalls ? 100.0 * S.SolverCacheHits / S.SolverCalls : 0.0,
                  static_cast<long long>(S.SolverCalls));
    std::cout << Buf;
  }

  double PlainSeconds = 0;
  double VerifySeconds = 0;
  for (const ProgramRun &R : Plain.Programs)
    PlainSeconds += R.Seconds;
  for (const ProgramRun &R : Traced.Programs)
    VerifySeconds += R.VerifySeconds;
  double SearchWall = Inclusive("synth/search");
  double PoolBusy = Inclusive("threadpool/task") + Inclusive("threadpool/help_task");
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0.0; };

  std::vector<Metric> Metrics = {
      {"library.build_s", Probe.LibrarySeconds, "s"},
      {"library.enumerate_stubs_s", Self("library/enumerate_stubs"), "s"},
      {"library.make_sketches_s", Self("library/make_sketches"), "s"},
      {"library.candidates_tried", double(Probe.CandidatesTried), "count"},
      {"library.stubs", double(Probe.Stubs), "count"},
      {"library.sketches", double(Probe.Sketches), "count"},
      {"library.shape_pruned", double(Probe.ShapePruned), "count"},
      {"holesolver.probes", double(C.Probes), "count"},
      {"holesolver.cache_hits", double(C.Hits), "count"},
      {"holesolver.cache_misses", double(C.Misses), "count"},
      {"holesolver.hit_ratio", Ratio(C.Hits, C.Probes), "fraction"},
      {"holesolver.solved", double(C.Solved), "count"},
      {"holesolver.solve_s", Self("holesolver/solve"), "s"},
      {"holesolver.solve_us_per_miss",
       1e6 * Ratio(Self("holesolver/solve"), CTraced.Misses), "us"},
      {"search.self_s",
       Self("synth/search") + Self("synth/dfs") + Self("synth/branch"), "s"},
      {"search.dfs_calls", double(C.DfsCalls), "count"},
      {"search.sketches_explored", double(C.Explored), "count"},
      {"search.pruned_cost", double(C.PrunedCost), "count"},
      {"search.pruned_simplification", double(C.PrunedSimplification),
       "count"},
      {"synth.run_self_s", Self("synth/run"), "s"},
      {"analysis.costbound_build_s", Probe.CostBoundSeconds, "s"},
      {"analysis.sketches_dropped", Trace.SketchesDropped, "count"},
      {"analysis.pruned_costbound",
       double(CTraced.PrunedCostBound) - Trace.SketchesDropped, "count"},
      {"analysis.pruned_oracle", double(C.PrunedOracle), "count"},
      {"symexec.spec_s", Probe.SpecSeconds, "s"},
      {"symbolic.intern_lookups", double(C.InternLookups), "count"},
      {"symbolic.intern_hit_ratio", Ratio(C.InternHits, C.InternLookups),
       "fraction"},
      {"symbolic.interned_nodes", double(C.InternedNodes), "count"},
      {"budget.checkpoint_calls", double(C.CheckpointCalls), "count"},
      {"budget.clock_reads", double(C.ClockReads), "count"},
      {"threadpool.busy_frac", Ratio(PoolBusy, W->Jobs * SearchWall),
       "fraction"},
      {"evalsuite.lift_verify_s", Inclusive("harness/lift") + VerifySeconds,
       "s"},
      {"observe.trace_overhead_frac",
       Ratio(Trace.TracedSeconds - PlainSeconds, PlainSeconds), "fraction"},
  };
  for (const char *Layer : ShareLayers)
    Metrics.push_back({std::string("share.") + Layer,
                       Ratio(LayerSelf[Layer], SelfTotal), "fraction"});
  std::cout << resultJson(Correct, Attempted, Failed, Metrics) << std::endl;
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    Options O = parseOptions(Argc, Argv);
    return O.RecordFile.empty() ? run(O) : record(O.RecordFile);
  } catch (const std::exception &E) {
    std::cerr << "stenso-perfbench: " << E.what() << "\n";
    return 1;
  }
}
