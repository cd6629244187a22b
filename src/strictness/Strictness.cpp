//===- Strictness.cpp - Demand-propagation strictness analyzer ---------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "strictness/Strictness.h"

#include "fl/FLParser.h"
#include "obs/EvalObserver.h"
#include "support/Stopwatch.h"

using namespace lpa;

char lpa::demandLetter(Demand D) {
  switch (D) {
  case Demand::None: return 'n';
  case Demand::Head: return 'd';
  case Demand::Full: return 'e';
  }
  return '?';
}

std::string FuncStrictness::summary() const {
  auto Render = [&](const std::vector<Demand> &Ds, bool Diverges) {
    if (Diverges)
      return std::string("diverges");
    std::string Out = "(";
    for (size_t I = 0; I < Ds.size(); ++I) {
      if (I)
        Out += ",";
      Out += demandLetter(Ds[I]);
    }
    Out += ")";
    return Out;
  };
  return Name + ": e->" + Render(UnderE, DivergesUnderE) + " d->" +
         Render(UnderD, DivergesUnderD);
}

const FuncStrictness *StrictnessResult::find(const std::string &Name) const {
  for (const FuncStrictness &F : Functions)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

namespace {

/// Decodes a demand atom / unbound variable from an answer term argument.
/// Unbound means unconstrained, whose meet contribution is n.
Demand decodeDemand(const TermStore &Store, const SymbolTable &Symbols,
                    TermRef T) {
  TermRef D = Store.deref(T);
  if (Store.tag(D) != TermTag::Atom)
    return Demand::None;
  const std::string &Name = Symbols.name(Store.symbol(D));
  if (Name == "e")
    return Demand::Full;
  if (Name == "d")
    return Demand::Head;
  return Demand::None;
}

/// Runs one demand query sp_f(DemandAtom, V1..Vk) and folds the answers.
void collectDemand(Solver &Engine, SymbolTable &Symbols, TermRef Call,
                   uint32_t Arity, std::vector<Demand> &Out, bool &Diverges) {
  const Subgoal *SG = Engine.findSubgoal(Call);
  Out.assign(Arity, Demand::Full);
  if (!SG || Engine.answerCount(*SG) == 0) {
    // No solution: evaluation under this demand always diverges, so the
    // strictness claim holds vacuously.
    Diverges = true;
    return;
  }
  Diverges = false;
  // Materialize each answer into a scratch store (factored tables never
  // hold whole instances; see Solver::answerInstance).
  TermStore Scratch;
  for (size_t AI = 0, AE = Engine.answerCount(*SG); AI < AE; ++AI) {
    Scratch.clear();
    TermRef A = Scratch.deref(Engine.answerInstance(*SG, AI, Scratch));
    for (uint32_t I = 0; I < Arity; ++I) {
      Demand D = decodeDemand(Scratch, Symbols, Scratch.arg(A, I + 1));
      if (D < Out[I])
        Out[I] = D; // Meet = minimum over solutions.
    }
  }
}

} // namespace

ErrorOr<StrictnessResult> StrictnessAnalyzer::analyze(std::string_view Source) {
  StrictnessResult Result;
  Stopwatch Phase;

  //--- Preprocessing: parse FL, transform (Figure 3), load. --------------
  EvalObserver Obs{.Trace = Trace, .Metrics = Metrics, .Cursor = Cursor};
  EvalObserver::Span PreprocSpan(Obs, "transform");
  auto Program = FLParser::parse(Source);
  if (!Program)
    return Program.getError();

  SymbolTable Symbols;
  StrictTransformer Transformer(Symbols);
  TermStore AbsStore;
  auto Abstract = Transformer.transform(*Program, AbsStore);
  if (!Abstract)
    return Abstract.getError();

  Database DB(Symbols);
  auto Loaded = DB.loadProgram(AbsStore, Abstract->Clauses);
  if (!Loaded)
    return Loaded.getError();
  // Table the sp_f predicates of user functions (demand propagation is
  // where the recursion lives); support predicates stay nontabled.
  for (const auto &[Name, Arity] : Abstract->Functions)
    DB.setTabled(Symbols.intern(Transformer.spName(Name)), Arity + 1);
  Result.PreprocSeconds = Phase.elapsedSeconds();
  PreprocSpan.finish();

  //--- Analysis: sp_f(e, ...) and sp_f(d, ...) per function. -------------
  Phase.restart();
  EvalObserver::Span EvalSpan(Obs, "evaluate");
  Solver Engine(DB, Opts.Engine);
  Engine.setObserver(Obs.empty() ? nullptr : &Obs);
  TermRef EAtom = Engine.store().mkAtom(Symbols.intern("e"));
  TermRef DAtom = Engine.store().mkAtom(Symbols.intern("d"));
  struct Query {
    TermRef ECall, DCall;
  };
  std::vector<Query> Queries;
  for (const auto &[Name, Arity] : Abstract->Functions) {
    SymbolId Sp = Symbols.intern(Transformer.spName(Name));
    auto MakeCall = [&](TermRef DemandAtom) {
      std::vector<TermRef> Args{DemandAtom};
      for (uint32_t I = 0; I < Arity; ++I)
        Args.push_back(Engine.store().mkVar());
      return Engine.store().mkStruct(Sp, Args);
    };
    Query Q{MakeCall(EAtom), MakeCall(DAtom)};
    Engine.solve(Q.ECall, nullptr);
    Engine.solve(Q.DCall, nullptr);
    Queries.push_back(Q);
  }
  Result.AnalysisSeconds = Phase.elapsedSeconds();
  EvalSpan.finish();

  // Soundness gate: a depth-limit-truncated answer table would make the
  // meet below an unsound over-claim of strictness (missing solutions can
  // only weaken demands). See Subgoal::Incomplete.
  if (Engine.stats().IncompleteTables) {
    if (!Opts.AllowIncomplete)
      return Diagnostic(
          "strictness analysis incomplete: depth limit truncated " +
          std::to_string(Engine.stats().IncompleteTables) +
          " table(s); raise Options::Engine.MaxDepth or set "
          "AllowIncomplete to accept the truncated result");
    Result.Incomplete = true;
  }

  //--- Collection. --------------------------------------------------------
  Phase.restart();
  EvalObserver::Span CollectSpan(Obs, "collect");
  Result.TableSpaceBytes = Engine.tableSpaceBytes();
  Result.Stats = Engine.stats();
  if (Opts.Engine.RecordProvenance) {
    ProvenanceArena::CheckStats PS = Engine.checkProvenance();
    Result.JustifiedAnswers = PS.Justified;
    Result.JustificationPremises = PS.Premises;
    Result.DanglingPremises = PS.Dangling;
  }
  if (Metrics)
    Engine.snapshotTableMetrics(*Metrics);
  for (size_t I = 0; I < Abstract->Functions.size(); ++I) {
    const auto &[Name, Arity] = Abstract->Functions[I];
    FuncStrictness FS;
    FS.Name = Name;
    FS.Arity = Arity;
    collectDemand(Engine, Symbols, Queries[I].ECall, Arity, FS.UnderE,
                  FS.DivergesUnderE);
    collectDemand(Engine, Symbols, Queries[I].DCall, Arity, FS.UnderD,
                  FS.DivergesUnderD);
    Result.Functions.push_back(std::move(FS));
  }
  Result.CollectSeconds = Phase.elapsedSeconds();
  return Result;
}

ErrorOr<std::string> StrictnessAnalyzer::explain(std::string_view Source,
                                                 std::string_view Func,
                                                 uint32_t Arg) {
  // Re-run the Figure-3 evaluation with provenance recording forced on; the
  // transform is deterministic, so clause indices line up with the run that
  // produced the reported strictness.
  auto Program = FLParser::parse(Source);
  if (!Program)
    return Program.getError();

  SymbolTable Symbols;
  StrictTransformer Transformer(Symbols);
  TermStore AbsStore;
  auto Abstract = Transformer.transform(*Program, AbsStore);
  if (!Abstract)
    return Abstract.getError();

  const std::pair<std::string, uint32_t> *Target = nullptr;
  for (const auto &F : Abstract->Functions)
    if (F.first == Func) {
      Target = &F;
      break;
    }
  if (!Target)
    return Diagnostic("explain: unknown function '" + std::string(Func) + "'");
  if (Arg >= Target->second)
    return Diagnostic("explain: argument " + std::to_string(Arg + 1) +
                      " out of range for " + Target->first + "/" +
                      std::to_string(Target->second));

  Database DB(Symbols);
  auto Loaded = DB.loadProgram(AbsStore, Abstract->Clauses);
  if (!Loaded)
    return Loaded.getError();
  for (const auto &[Name, Arity] : Abstract->Functions)
    DB.setTabled(Symbols.intern(Transformer.spName(Name)), Arity + 1);

  Solver::Options EO = Opts.Engine;
  EO.RecordProvenance = true;
  Solver Engine(DB, EO);
  TermRef EAtom = Engine.store().mkAtom(Symbols.intern("e"));
  SymbolId Sp = Symbols.intern(Transformer.spName(Target->first));
  std::vector<TermRef> Args{EAtom};
  for (uint32_t I = 0; I < Target->second; ++I)
    Args.push_back(Engine.store().mkVar());
  TermRef Call = Engine.store().mkStruct(Sp, Args);
  Engine.solve(Call, nullptr);
  if (Engine.stats().IncompleteTables && !Opts.AllowIncomplete)
    return Diagnostic("explain: depth limit truncated evaluation; raise "
                      "Options::Engine.MaxDepth or set AllowIncomplete");

  const Subgoal *SG = Engine.findSubgoal(Call);
  const std::string Name =
      Target->first + "/" + std::to_string(Target->second);
  if (!SG || Engine.answerCount(*SG) == 0)
    return "why " + Name + " is strict in argument " +
           std::to_string(Arg + 1) +
           ": sp_" + Target->first +
           "(e, ...) has no solution — every evaluation under full demand "
           "diverges, so the strictness claim holds vacuously.\n";

  // The reported demand is the meet over all answers; show the first
  // answer's derivation as the witness and say so in the header.
  size_t Total = Engine.answerCount(*SG);
  auto Proof = Engine.justifyAnswer(*SG, 0);
  if (!Proof)
    return Diagnostic("explain: no justification recorded for answer 0 of " +
                      Name);

  // Node labels print the materialized answer/call with the sp_ prefix
  // stripped, so the tree reads over the source functions.
  const std::string AbsPrefix = Transformer.spName("");
  auto StripPrefix = [&](std::string S) {
    size_t Pos = 0;
    std::string Out;
    while (Pos < S.size()) {
      size_t Hit = S.find(AbsPrefix, Pos);
      if (Hit == std::string::npos) {
        Out.append(S, Pos, std::string::npos);
        break;
      }
      Out.append(S, Pos, Hit - Pos);
      Pos = Hit + AbsPrefix.size();
    }
    return Out;
  };
  auto Label = [&](const ProofNode &N) {
    const auto &Order = Engine.subgoals();
    if (N.SubgoalIdx >= Order.size())
      return std::string("<unknown subgoal>");
    const Subgoal &S = *Order[N.SubgoalIdx];
    if (N.AnswerIdx >= Engine.answerCount(S))
      return StripPrefix(Engine.formatCall(S)) + " (answer pending)";
    return StripPrefix(Engine.formatAnswer(S, N.AnswerIdx));
  };
  auto ClauseLabel = [&](const ProofNode &N) {
    return "rule " + std::to_string(N.ClauseIdx + 1) +
           " of the demand program";
  };

  std::string Out = "why " + Name + " demands argument " +
                    std::to_string(Arg + 1) +
                    " under full (e) demand — the claim is the meet over " +
                    std::to_string(Total) + " solution(s); witness: answer "
                    "1 of " + std::to_string(Total) + ":\n";
  Out += renderProofTree(*Proof, Label, ClauseLabel);
  return Out;
}

ErrorOr<double> StrictnessAnalyzer::measureCompileSeconds(
    std::string_view Source) {
  Stopwatch Watch;
  auto Program = FLParser::parse(Source);
  if (!Program)
    return Program.getError();
  return Watch.elapsedSeconds();
}
