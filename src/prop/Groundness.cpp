//===- Groundness.cpp - Prop groundness analyzer -----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "prop/Groundness.h"

#include "obs/EvalObserver.h"
#include "reader/Parser.h"
#include "support/Stopwatch.h"

#include <unordered_map>

using namespace lpa;

const PredGroundness *GroundnessResult::find(const std::string &Name,
                                             uint32_t Arity) const {
  for (const PredGroundness &P : Predicates)
    if (P.Name == Name && P.Arity == Arity)
      return &P;
  return nullptr;
}

void lpa::expandAnswerTuple(const TermStore &Store, const SymbolTable &Symbols,
                            const std::vector<TermRef> &Args,
                            TruthTable &Table) {
  // Classify each argument: fixed truth value or a variable index. Shared
  // variables receive the same index so they expand consistently.
  std::unordered_map<TermRef, size_t> VarIndex;
  struct Slot {
    bool IsVar;
    bool Value;   // When !IsVar.
    size_t Index; // When IsVar.
  };
  std::vector<Slot> Slots;
  for (TermRef A : Args) {
    TermRef D = Store.deref(A);
    if (Store.tag(D) == TermTag::Ref) {
      auto [It, _] = VarIndex.emplace(D, VarIndex.size());
      Slots.push_back({true, false, It->second});
      continue;
    }
    // Anything that is not the atom 'true' counts as false; the abstract
    // program only ever binds arguments to true/false.
    bool V = Store.tag(D) == TermTag::Atom &&
             Store.symbol(D) == Symbols.BoolTrue;
    Slots.push_back({false, V, 0});
  }

  size_t NumVars = VarIndex.size();
  assert(NumVars < 24 && "unreasonable number of free answer variables");
  for (uint64_t Mask = 0; Mask < (uint64_t(1) << NumVars); ++Mask) {
    BoolTuple Row;
    Row.reserve(Slots.size());
    for (const Slot &S : Slots)
      Row.push_back(S.IsVar ? ((Mask >> S.Index) & 1) != 0 : S.Value);
    Table.insert(std::move(Row));
  }
}

ErrorOr<GroundnessResult> GroundnessAnalyzer::analyze(std::string_view Source) {
  GroundnessResult Result;
  Stopwatch Phase;

  //--- Preprocessing: read, transform (Figure 1), load as dynamic code. ---
  EvalObserver Obs{
      .Trace = Opts.Trace, .Metrics = Opts.Metrics, .Cursor = Opts.Cursor};
  EvalObserver::Span PreprocSpan(Obs, "transform");
  TermStore AbsStore;
  PropTransformer Transformer(Symbols);
  auto Program = Transformer.transformText(Source, AbsStore);
  if (!Program)
    return Program.getError();

  Database AbsDB(Symbols);
  auto Loaded = AbsDB.loadProgram(AbsStore, Program->Clauses);
  if (!Loaded)
    return Loaded.getError();
  AbsDB.tableAllPredicates();
  Result.PreprocSeconds = Phase.elapsedSeconds();
  PreprocSpan.finish();

  //--- Analysis: evaluate the open call of every predicate. --------------
  Phase.restart();
  EvalObserver::Span EvalSpan(Obs, "evaluate");
  Solver Engine(AbsDB, Opts.Engine);
  Engine.setObserver(Obs.empty() ? nullptr : &Obs);
  if (Opts.AggregateModes) {
    // Section 6.2: one joined answer per subgoal. The join is the
    // pointwise least upper bound of boolean tuples: agreeing positions
    // keep their value, disagreeing ones widen to a fresh variable
    // ("either value").
    Solver::AnswerJoinFn Join = [](TermStore &TS, TermRef A,
                                   TermRef B) -> TermRef {
      TermRef DA = TS.deref(A), DB2 = TS.deref(B);
      if (TS.tag(DA) != TermTag::Struct)
        return DA; // 0-ary predicates: nothing to join.
      std::vector<TermRef> Args;
      bool Same = true;
      for (uint32_t I = 0, E = TS.arity(DA); I < E; ++I) {
        TermRef X = TS.deref(TS.arg(DA, I));
        TermRef Y = TS.deref(TS.arg(DB2, I));
        bool BothAtoms =
            TS.tag(X) == TermTag::Atom && TS.tag(Y) == TermTag::Atom;
        if (BothAtoms && TS.symbol(X) == TS.symbol(Y)) {
          Args.push_back(X);
        } else if (TS.tag(X) == TermTag::Ref) {
          Args.push_back(X); // Already "either value".
        } else {
          Args.push_back(TS.mkVar());
          Same = false;
        }
      }
      if (Same)
        return DA;
      return TS.mkStruct(TS.symbol(DA), Args);
    };
    for (PredKey P : Program->Predicates)
      Engine.setAnswerJoin(
          {Transformer.abstractSymbol(P.Sym), P.Arity}, Join);
  }
  std::vector<std::pair<PredKey, TermRef>> OpenCalls;
  for (PredKey P : Program->Predicates) {
    SymbolId AbsSym = Transformer.abstractSymbol(P.Sym);
    TermRef Call;
    if (P.Arity == 0) {
      Call = Engine.store().mkAtom(AbsSym);
    } else {
      std::vector<TermRef> Args;
      for (uint32_t I = 0; I < P.Arity; ++I)
        Args.push_back(Engine.store().mkVar());
      Call = Engine.store().mkStruct(AbsSym, Args);
    }
    OpenCalls.emplace_back(P, Call);
  }
  if (Opts.Engine.EvalWorkers > 1) {
    // Evaluate independent predicate cones in parallel first; the serial
    // loop below then runs against warm tables. The open calls are
    // variable-disjoint by construction (fresh vars per call), which is
    // exactly what primeTables needs.
    std::vector<TermRef> Seeds;
    Seeds.reserve(OpenCalls.size());
    for (auto &[Pred, Call] : OpenCalls)
      Seeds.push_back(Call);
    Engine.primeTables(Seeds);
  }
  for (auto &[Pred, Call] : OpenCalls)
    Engine.solve(Call, nullptr); // Run to completion; answers go to tables.
  Result.AnalysisSeconds = Phase.elapsedSeconds();
  EvalSpan.finish();

  // Soundness gate: depth-limit truncation poisons tables (see
  // Subgoal::Incomplete); a truncated table is not the minimal model and
  // must not be reported as one.
  if (Engine.stats().IncompleteTables) {
    if (!Opts.AllowIncomplete)
      return Diagnostic(
          "groundness analysis incomplete: depth limit truncated " +
          std::to_string(Engine.stats().IncompleteTables) +
          " table(s); raise Options::Engine.MaxDepth or set "
          "AllowIncomplete to accept a lower bound");
    Result.Incomplete = true;
  }

  //--- Collection: fold tables into groundness results. ------------------
  Phase.restart();
  EvalObserver::Span CollectSpan(Obs, "collect");
  Result.TableSpaceBytes = Engine.tableSpaceBytes();
  Result.Stats = Engine.stats();
  if (Opts.Metrics)
    Engine.snapshotTableMetrics(*Opts.Metrics);
  if (Opts.Engine.RecordProvenance) {
    ProvenanceArena::CheckStats CS = Engine.checkProvenance();
    Result.JustifiedAnswers = CS.Justified;
    Result.JustificationPremises = CS.Premises;
    Result.DanglingPremises = CS.Dangling;
  }

  // Output groundness from the open call's answer table.
  std::unordered_map<SymbolId, size_t> ByAbsSym;
  for (auto &[Pred, Call] : OpenCalls) {
    PredGroundness PG;
    PG.Name = Symbols.name(Pred.Sym);
    PG.Arity = Pred.Arity;
    const Subgoal *SG = Engine.findSubgoal(Call);
    if (SG) {
      // Materialize each answer instance into a scratch store (factored
      // tables never hold whole instances; see Solver::answerInstance).
      TermStore Scratch;
      for (size_t AI = 0, AE = Engine.answerCount(*SG); AI < AE; ++AI) {
        Scratch.clear();
        TermRef Ans = Engine.answerInstance(*SG, AI, Scratch);
        std::vector<TermRef> Args;
        for (uint32_t I = 0; I < Pred.Arity; ++I)
          Args.push_back(Scratch.arg(Scratch.deref(Ans), I));
        expandAnswerTuple(Scratch, Symbols, Args, PG.SuccessSet);
      }
    }
    ByAbsSym.emplace(Transformer.abstractSymbol(Pred.Sym),
                     Result.Predicates.size());
    Result.Predicates.push_back(std::move(PG));
  }

  // Input groundness from the call table: every recorded subgoal is a call
  // pattern (left-to-right evaluation; Section 3.1 "Input and Output
  // Groundness").
  const TermStore &TS = Engine.tableStore();
  for (const Subgoal *SG : Engine.subgoals()) {
    auto It = ByAbsSym.find(SG->Pred.Sym);
    if (It == ByAbsSym.end())
      continue;
    PredGroundness &PG = Result.Predicates[It->second];
    if (SG->Pred.Arity != PG.Arity)
      continue;
    TermRef Call = TS.deref(SG->CallTerm);
    BoolTuple Pattern;
    for (uint32_t I = 0; I < PG.Arity; ++I) {
      TermRef A = TS.deref(TS.arg(Call, I));
      // An argument is a ground *input* only when the call binds it true.
      Pattern.push_back(TS.tag(A) == TermTag::Atom &&
                        TS.symbol(A) == Symbols.BoolTrue);
    }
    PG.CallPatterns.insert(std::move(Pattern));
  }

  for (PredGroundness &PG : Result.Predicates)
    PG.computeMeets();
  Result.CollectSeconds = Phase.elapsedSeconds();
  return Result;
}

ErrorOr<std::string> GroundnessAnalyzer::explain(std::string_view Source,
                                                 std::string_view Pred,
                                                 uint32_t Arity,
                                                 uint32_t Arg) {
  if (Arg >= Arity && Arity > 0)
    return Diagnostic("explain: argument index " + std::to_string(Arg) +
                      " out of range for arity " + std::to_string(Arity));

  // Re-run transform + evaluation with provenance on. The extra run keeps
  // analyze() itself zero-cost when nobody asks "why"; explain is a
  // debugging entry point, not a hot path.
  TermStore AbsStore;
  PropTransformer Transformer(Symbols);
  auto Program = Transformer.transformText(Source, AbsStore);
  if (!Program)
    return Program.getError();
  Database AbsDB(Symbols);
  auto Loaded = AbsDB.loadProgram(AbsStore, Program->Clauses);
  if (!Loaded)
    return Loaded.getError();
  AbsDB.tableAllPredicates();

  const PredKey *Target = nullptr;
  for (const PredKey &P : Program->Predicates)
    if (Symbols.name(P.Sym) == Pred && P.Arity == Arity)
      Target = &P;
  if (!Target)
    return Diagnostic("explain: unknown predicate " + std::string(Pred) + "/" +
                      std::to_string(Arity));

  Solver::Options EO = Opts.Engine;
  EO.RecordProvenance = true;
  Solver Engine(AbsDB, EO);
  SymbolId AbsSym = Transformer.abstractSymbol(Target->Sym);
  TermRef Call;
  if (Arity == 0) {
    Call = Engine.store().mkAtom(AbsSym);
  } else {
    std::vector<TermRef> Args;
    for (uint32_t I = 0; I < Arity; ++I)
      Args.push_back(Engine.store().mkVar());
    Call = Engine.store().mkStruct(AbsSym, Args);
  }
  Engine.solve(Call, nullptr);

  const Subgoal *SG = Engine.findSubgoal(Call);
  if (!SG || Engine.answerCount(*SG) == 0)
    return Diagnostic("explain: " + std::string(Pred) + "/" +
                      std::to_string(Arity) +
                      " has no abstract success (predicate never succeeds)");

  // Witness: the first answer whose Arg position is the atom `true`
  // (meaning: in this success pattern the argument is definitely ground).
  size_t Witness = SIZE_MAX;
  TermStore Scratch;
  for (size_t AI = 0, AE = Engine.answerCount(*SG); AI < AE; ++AI) {
    if (Arity == 0) {
      Witness = AI;
      break;
    }
    Scratch.clear();
    TermRef Ans = Engine.answerInstance(*SG, AI, Scratch);
    TermRef A = Scratch.deref(Scratch.arg(Scratch.deref(Ans), Arg));
    if (Scratch.tag(A) == TermTag::Atom &&
        Scratch.symbol(A) == Symbols.BoolTrue) {
      Witness = AI;
      break;
    }
  }
  if (Witness == SIZE_MAX)
    return Diagnostic("explain: no success pattern of " + std::string(Pred) +
                      "/" + std::to_string(Arity) + " grounds argument " +
                      std::to_string(Arg + 1));

  auto Tree = Engine.justifyAnswer(*SG, Witness);
  if (!Tree)
    return Diagnostic("explain: provenance recording unavailable");

  // Map abstract nodes back to the source program: strip the gp_ prefix
  // from labels, and annotate clauses as "clause i of p/n" — valid because
  // the Figure-1 transform is clause-by-clause and order-preserving.
  const std::string AbsPrefix = Transformer.abstractName("");
  auto StripPrefix = [&AbsPrefix](std::string S) {
    if (S.compare(0, AbsPrefix.size(), AbsPrefix) == 0)
      S.erase(0, AbsPrefix.size());
    return S;
  };
  auto Label = [&](const ProofNode &N) {
    const Subgoal &G = *Engine.subgoals()[N.SubgoalIdx];
    if (N.AnswerIdx >= Engine.answerCount(G))
      return StripPrefix(Engine.formatCall(G)) + " <missing answer>";
    return StripPrefix(Engine.formatAnswer(G, N.AnswerIdx));
  };
  auto ClauseLabel = [&](const ProofNode &N) {
    const Subgoal &G = *Engine.subgoals()[N.SubgoalIdx];
    std::string Name = StripPrefix(Symbols.name(G.Pred.Sym));
    return "clause " + std::to_string(N.ClauseIdx + 1) + " of " + Name + "/" +
           std::to_string(G.Pred.Arity);
  };

  std::string Out = "why " + std::string(Pred) + "/" + std::to_string(Arity);
  if (Arity > 0)
    Out += " can be ground in argument " + std::to_string(Arg + 1);
  Out += " on success (witness: answer " + std::to_string(Witness + 1) +
         " of " + std::to_string(Engine.answerCount(*SG)) + "):\n";
  Out += renderProofTree(*Tree, Label, ClauseLabel);
  return Out;
}

ErrorOr<double> GroundnessAnalyzer::measureCompileSeconds(
    std::string_view Source) {
  Stopwatch Watch;
  Database DB(Symbols);
  auto R = DB.consult(Source);
  if (!R)
    return R.getError();
  return Watch.elapsedSeconds();
}
