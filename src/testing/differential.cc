#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "exec/database.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"
#include "testing/oracle.h"

namespace vdb::fuzz {

namespace {

using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;

// ---------------------------------------------------------------------------
// Result comparison

/// Tolerant scalar equality: exact for everything except doubles, which
/// may differ by floating-point accumulation order between the engine's
/// plan and the oracle's nested loops.
bool ValuesMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == TypeId::kDouble || b.type() == TypeId::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::fabs(x - y) <= 1e-9 + 1e-8 * std::max(std::fabs(x),
                                                      std::fabs(y));
  }
  if (a.type() != b.type()) return false;
  return Value::Compare(a, b) == 0;
}

/// Total order over values of one column, for canonicalizing row multisets
/// before pairwise comparison. NULLs sort first; doubles compare exactly.
int CanonicalCompare(const Value& a, const Value& b) {
  const bool a_null = a.is_null();
  const bool b_null = b.is_null();
  if (a_null || b_null) {
    return static_cast<int>(b_null) - static_cast<int>(a_null);
  }
  if (a.type() != b.type()) {
    return static_cast<int>(a.type()) < static_cast<int>(b.type()) ? -1 : 1;
  }
  return Value::Compare(a, b);
}

bool CanonicalRowLess(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const int cmp = CanonicalCompare(a[i], b[i]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

/// NULLS LAST on ascending keys, as the engine sorts.
int SortCompare(const Value& a, const Value& b, bool ascending) {
  const bool a_null = a.is_null();
  const bool b_null = b.is_null();
  if (a_null && b_null) return 0;
  if (a_null) return ascending ? 1 : -1;
  if (b_null) return ascending ? -1 : 1;
  const int cmp = Value::Compare(a, b);
  return ascending ? cmp : -cmp;
}

std::string RowToString(const Tuple& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].is_null() ? "NULL" : row[i].ToString();
  }
  return out + ")";
}

std::string DescribeRows(const std::vector<Tuple>& rows, size_t limit = 6) {
  std::string out;
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    out += "    " + RowToString(rows[i]) + "\n";
  }
  if (rows.size() > limit) {
    out += "    ... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

/// Compares two result row sets as multisets (tolerant on doubles).
/// Returns an empty string on match, else a description.
std::string CompareRowSets(std::vector<Tuple> engine,
                           std::vector<Tuple> oracle) {
  if (engine.size() != oracle.size()) {
    return "row count differs: engine=" + std::to_string(engine.size()) +
           " oracle=" + std::to_string(oracle.size()) + "\n  engine:\n" +
           DescribeRows(engine) + "  oracle:\n" + DescribeRows(oracle);
  }
  std::sort(engine.begin(), engine.end(), CanonicalRowLess);
  std::sort(oracle.begin(), oracle.end(), CanonicalRowLess);
  for (size_t r = 0; r < engine.size(); ++r) {
    if (engine[r].size() != oracle[r].size()) {
      return "column count differs in row " + std::to_string(r) +
             ": engine=" + std::to_string(engine[r].size()) +
             " oracle=" + std::to_string(oracle[r].size());
    }
    for (size_t c = 0; c < engine[r].size(); ++c) {
      if (!ValuesMatch(engine[r][c], oracle[r][c])) {
        return "value differs (canonical row " + std::to_string(r) +
               ", column " + std::to_string(c) +
               "): engine=" + RowToString(engine[r]) +
               " oracle=" + RowToString(oracle[r]);
      }
    }
  }
  return "";
}

/// Compares the simulated charges of two cold-cache runs of one query.
/// Doubles may differ by float rounding between the row engine's per-row
/// charges and the batch engine's per-batch lump sums; physical reads
/// must match exactly.
std::string CompareCharges(const exec::QueryResult& a,
                           const exec::QueryResult& b) {
  if (a.physical_reads != b.physical_reads) {
    return "physical_reads differ: " + std::to_string(a.physical_reads) +
           " vs " + std::to_string(b.physical_reads);
  }
  const auto close = [](double x, double y) {
    return std::fabs(x - y) <=
           1e-12 + 1e-9 * std::max(std::fabs(x), std::fabs(y));
  };
  const auto describe = [](const char* name, double x, double y) {
    std::ostringstream out;
    out.precision(17);
    out << name << " differs: " << x << " vs " << y;
    return out.str();
  };
  if (!close(a.cpu_seconds, b.cpu_seconds)) {
    return describe("cpu_seconds", a.cpu_seconds, b.cpu_seconds);
  }
  if (!close(a.io_seconds, b.io_seconds)) {
    return describe("io_seconds", a.io_seconds, b.io_seconds);
  }
  if (!close(a.elapsed_seconds, b.elapsed_seconds)) {
    return describe("elapsed_seconds", a.elapsed_seconds, b.elapsed_seconds);
  }
  return "";
}

/// Ordered, bitwise row comparison for two executions of the SAME plan on
/// the same engine: no tolerance, doubles compared by bit pattern (so NaN
/// equals NaN and +0.0 differs from -0.0).
std::string CompareRowsBitwise(const std::vector<Tuple>& a,
                               const std::vector<Tuple>& b) {
  if (a.size() != b.size()) {
    return "row count differs: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  const auto bits = [](double v) {
    uint64_t out;
    std::memcpy(&out, &v, sizeof(out));
    return out;
  };
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      return "column count differs in row " + std::to_string(r);
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      bool same = x.is_null() == y.is_null() && x.type() == y.type();
      if (same && !x.is_null()) {
        if (x.type() == TypeId::kDouble) {
          same = bits(x.AsDouble()) == bits(y.AsDouble());
        } else {
          same = Value::Compare(x, y) == 0;
        }
      }
      if (!same) {
        return "row " + std::to_string(r) + " differs: " + RowToString(a[r]) +
               " vs " + RowToString(b[r]);
      }
    }
  }
  return "";
}

/// Checks that `rows` are sorted on `sort_columns` (output-column index,
/// ascending), using the engine's own values. An ORDER BY result that is
/// the right multiset but misordered is still a bug.
std::string CheckSorted(const std::vector<Tuple>& rows,
                        const std::vector<std::pair<size_t, bool>>& keys) {
  for (size_t r = 1; r < rows.size(); ++r) {
    for (const auto& [slot, ascending] : keys) {
      if (slot >= rows[r].size()) return "";  // shrunk projection; skip
      const int cmp = SortCompare(rows[r - 1][slot], rows[r][slot],
                                  ascending);
      if (cmp < 0) break;
      if (cmp > 0) {
        return "engine rows violate ORDER BY between rows " +
               std::to_string(r - 1) + " and " + std::to_string(r) + ": " +
               RowToString(rows[r - 1]) + " then " + RowToString(rows[r]);
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// One query check

enum class Outcome { kMatch, kSkip, kAgreedError, kMismatch };

struct CheckResult {
  Outcome outcome = Outcome::kMatch;
  std::string detail;
};

CheckResult CheckQuery(exec::Database* db, const sim::VirtualMachine& vm,
                       const GeneratedQuery& query,
                       bool check_environment_invariance,
                       bool check_engine_equivalence,
                       bool check_zone_map_equivalence) {
  const std::string sql = query.Sql();
  Result<exec::QueryResult> engine = db->Execute(sql, vm);
  ReferenceEvaluator oracle(db->catalog());
  Result<RefResult> reference = oracle.Evaluate(*query.stmt);

  if (!engine.ok()) {
    if (engine.status().IsNotSupported()) {
      return {Outcome::kSkip, engine.status().message()};
    }
    if (!reference.ok()) {
      return {Outcome::kAgreedError,
              "engine: " + engine.status().message() +
                  " | oracle: " + reference.status().message()};
    }
    return {Outcome::kMismatch,
            "engine failed but oracle succeeded: " +
                engine.status().message()};
  }
  if (!reference.ok()) {
    return {Outcome::kMismatch,
            "oracle failed but engine succeeded: " +
                reference.status().message()};
  }

  if (engine->column_names.size() != reference->column_names.size()) {
    return {Outcome::kMismatch,
            "output arity differs: engine=" +
                std::to_string(engine->column_names.size()) +
                " oracle=" + std::to_string(reference->column_names.size())};
  }
  std::string diff = CompareRowSets(engine->rows, reference->rows);
  if (!diff.empty()) {
    return {Outcome::kMismatch, "engine vs oracle: " + diff};
  }
  if (!query.sort_columns.empty()) {
    diff = CheckSorted(engine->rows, query.sort_columns);
    if (!diff.empty()) return {Outcome::kMismatch, diff};
  }

  if (check_engine_equivalence) {
    // The row and batch engines must be indistinguishable: same rows, same
    // ordering, and — including under LIMIT — the same simulated charges.
    // Each run starts cold so buffer-pool state cannot explain a charge
    // difference.
    const exec::ExecMode original = db->exec_mode();
    const auto run_cold = [&](exec::ExecMode mode) {
      db->set_exec_mode(mode);
      (void)db->DropCaches();
      Result<exec::QueryResult> result = db->Execute(sql, vm);
      db->set_exec_mode(original);
      return result;
    };
    const auto check_against = [&](const Result<exec::QueryResult>& a,
                                   const exec::QueryResult& b) -> std::string {
      if (!a.ok()) {
        if (a.status().IsNotSupported()) return "";
        return "other engine failed: " + a.status().message();
      }
      std::string d = CompareRowSets(a->rows, b.rows);
      if (d.empty() && !query.sort_columns.empty()) {
        d = CheckSorted(a->rows, query.sort_columns);
      }
      if (d.empty()) d = CompareCharges(*a, b);
      return d;
    };

    Result<exec::QueryResult> batch = run_cold(exec::ExecMode::kBatch);
    if (batch.ok()) {
      Result<exec::QueryResult> row = run_cold(exec::ExecMode::kRow);
      diff = check_against(row, *batch);
      if (!diff.empty()) {
        return {Outcome::kMismatch, "row vs batch engines disagree: " + diff};
      }
    } else if (!batch.status().IsNotSupported()) {
      return {Outcome::kMismatch,
              "batch engine failed on re-run: " + batch.status().message()};
    }
  }

  if (check_zone_map_equivalence) {
    // Zone-map pruning is pure I/O elision: a pruned page must be one with
    // no qualifying rows, so executing the SAME physical plan with pruning
    // flipped has to return bitwise-identical rows (doubles compared by bit
    // pattern). Re-executing one plan — rather than re-planning — sidesteps
    // skip-aware costing legitimately changing the plan shape.
    Result<optimizer::PhysicalNodePtr> plan = db->Prepare(sql);
    if (plan.ok()) {
      Result<exec::QueryResult> with = db->ExecutePlan(**plan, vm);
      const bool saved = db->zone_maps_enabled();
      db->set_zone_maps_enabled(!saved);
      Result<exec::QueryResult> without = db->ExecutePlan(**plan, vm);
      db->set_zone_maps_enabled(saved);
      if (with.ok() != without.ok()) {
        return {Outcome::kMismatch,
                "zone-map pruning changed query outcome: with=" +
                    (with.ok() ? std::string("ok")
                               : with.status().message()) +
                    " flipped=" +
                    (without.ok() ? std::string("ok")
                                  : without.status().message())};
      }
      if (with.ok()) {
        diff = CompareRowsBitwise(with->rows, without->rows);
        if (!diff.empty()) {
          return {Outcome::kMismatch,
                  "zone-map pruning changed rows: " + diff};
        }
      }
    }
  }

  if (check_environment_invariance) {
    // Row results must not depend on plan choice. Re-run under a starved
    // memory configuration and under skewed cost parameters; both push
    // the optimizer towards different plans over the same data.
    const std::vector<Tuple>& baseline = engine->rows;

    sim::VirtualMachine small("vm-small", sim::MachineSpec::Small(),
                              sim::HypervisorModel::Ideal(),
                              sim::ResourceShare(1.0, 0.25, 1.0));
    Status applied = db->ApplyVmConfig(small);
    if (applied.ok()) {
      Result<exec::QueryResult> rerun = db->Execute(sql, small);
      if (rerun.ok()) {
        diff = CompareRowSets(rerun->rows, baseline);
        if (diff.empty() && !query.sort_columns.empty()) {
          diff = CheckSorted(rerun->rows, query.sort_columns);
        }
      } else if (!rerun.status().IsNotSupported()) {
        diff = "re-run under small VM failed: " + rerun.status().message();
      }
    }
    // Restore the original configuration before the params mutation.
    (void)db->ApplyVmConfig(vm);
    if (!diff.empty()) {
      return {Outcome::kMismatch,
              "environment invariance (memory share): " + diff};
    }

    optimizer::OptimizerParams skewed;
    skewed.random_page_cost = skewed.seq_page_cost;  // favor index scans
    skewed.work_mem_bytes = 64 << 10;                // force spills
    skewed.effective_cache_size_pages = 16;
    db->SetOptimizerParams(skewed);
    Result<exec::QueryResult> rerun = db->Execute(sql, vm);
    if (rerun.ok()) {
      diff = CompareRowSets(rerun->rows, baseline);
      if (diff.empty() && !query.sort_columns.empty()) {
        diff = CheckSorted(rerun->rows, query.sort_columns);
      }
    } else if (!rerun.status().IsNotSupported()) {
      diff = "re-run under skewed params failed: " + rerun.status().message();
    }
    (void)db->ApplyVmConfig(vm);  // restores derived optimizer params
    if (!diff.empty()) {
      return {Outcome::kMismatch,
              "environment invariance (optimizer params): " + diff};
    }
  }

  return {Outcome::kMatch, ""};
}

// ---------------------------------------------------------------------------
// Shrinking

GeneratedQuery CloneQuery(const GeneratedQuery& query) {
  GeneratedQuery clone;
  clone.stmt = CloneSelect(*query.stmt);
  clone.sort_columns = query.sort_columns;
  return clone;
}

/// Enumerates one-step reductions of `query`, smallest-effect first.
std::vector<GeneratedQuery> ShrinkCandidates(const GeneratedQuery& query) {
  std::vector<GeneratedQuery> out;
  const sql::SelectStatement& stmt = *query.stmt;

  if (stmt.limit >= 0) {
    GeneratedQuery c = CloneQuery(query);
    c.stmt->limit = -1;
    out.push_back(std::move(c));
  }
  if (!stmt.order_by.empty()) {
    GeneratedQuery c = CloneQuery(query);
    c.stmt->order_by.clear();
    c.sort_columns.clear();
    out.push_back(std::move(c));
  }
  if (stmt.having != nullptr) {
    GeneratedQuery c = CloneQuery(query);
    c.stmt->having = nullptr;
    out.push_back(std::move(c));
  }
  if (stmt.distinct) {
    GeneratedQuery c = CloneQuery(query);
    c.stmt->distinct = false;
    out.push_back(std::move(c));
  }
  if (stmt.where != nullptr) {
    // Try dropping the predicate, then each side of a top-level AND/OR.
    GeneratedQuery c = CloneQuery(query);
    c.stmt->where = nullptr;
    out.push_back(std::move(c));
    if (stmt.where->type == sql::ExprType::kBinary) {
      const auto& binary = static_cast<const sql::BinaryExpr&>(*stmt.where);
      if (binary.op == sql::BinaryOp::kAnd ||
          binary.op == sql::BinaryOp::kOr) {
        for (const sql::Expr* side :
             {binary.left.get(), binary.right.get()}) {
          GeneratedQuery half = CloneQuery(query);
          half.stmt->where = CloneExpr(*side);
          out.push_back(std::move(half));
        }
      }
    }
    if (stmt.where->type == sql::ExprType::kUnary) {
      const auto& unary = static_cast<const sql::UnaryExpr&>(*stmt.where);
      if (unary.op == sql::UnaryOp::kNot) {
        GeneratedQuery c2 = CloneQuery(query);
        c2.stmt->where = CloneExpr(*unary.operand);
        out.push_back(std::move(c2));
      }
    }
  }
  if (stmt.from.size() > 1) {
    GeneratedQuery c = CloneQuery(query);
    c.stmt->from.pop_back();
    out.push_back(std::move(c));
  }
  for (size_t g = 0; g < stmt.group_by.size(); ++g) {
    GeneratedQuery c = CloneQuery(query);
    c.stmt->group_by.erase(c.stmt->group_by.begin() +
                           static_cast<ptrdiff_t>(g));
    out.push_back(std::move(c));
  }
  if (stmt.items.size() > 1) {
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      GeneratedQuery c = CloneQuery(query);
      c.stmt->items.erase(c.stmt->items.begin() + static_cast<ptrdiff_t>(i));
      // ORDER BY may reference the dropped item; drop ordering checks to
      // keep the reduction well-formed.
      c.stmt->order_by.clear();
      c.sort_columns.clear();
      out.push_back(std::move(c));
    }
  }
  return out;
}

/// Greedy minimization: repeatedly adopt any one-step reduction that still
/// mismatches, until none does or the budget runs out.
GeneratedQuery Shrink(exec::Database* db, const sim::VirtualMachine& vm,
                      GeneratedQuery query, bool environment_invariance,
                      bool engine_equivalence, bool zone_map_equivalence,
                      int budget) {
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (GeneratedQuery& candidate : ShrinkCandidates(query)) {
      if (--budget < 0) break;
      CheckResult check = CheckQuery(db, vm, candidate,
                                     environment_invariance,
                                     engine_equivalence,
                                     zone_map_equivalence);
      if (check.outcome == Outcome::kMismatch) {
        query = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return query;
}

}  // namespace

std::string FailureReport::ToString() const {
  std::ostringstream out;
  out << "differential failure (seed " << seed << ")\n"
      << "  schema: " << schema << "\n"
      << "  sql:    " << sql << "\n";
  if (original_sql != sql) {
    out << "  before shrinking: " << original_sql << "\n";
  }
  out << "  detail: " << detail << "\n"
      << "  repro:  " << repro << "\n";
  return out.str();
}

std::string CampaignStats::ToString() const {
  std::ostringstream out;
  out << queries << " queries: " << matched << " matched, " << skipped
      << " skipped (NotSupported), " << agreed_errors << " agreed errors";
  return out.str();
}

bool RunDifferentialSeed(uint64_t seed, const DifferentialOptions& options,
                         CampaignStats* stats, FailureReport* failure) {
  Random rng(seed);
  SchemaPlan schema = GenerateSchemaPlan(&rng, options.generator);

  exec::Database db;
  sim::VirtualMachine vm("vm-fuzz", sim::MachineSpec::Small(),
                         sim::HypervisorModel::Ideal(),
                         sim::ResourceShare(1.0, 1.0, 1.0));
  Status setup = db.ApplyVmConfig(vm);
  if (setup.ok()) setup = schema.Materialize(db.catalog());
  if (!setup.ok()) {
    failure->seed = seed;
    failure->schema = schema.ToString();
    failure->detail = "schema materialization failed: " + setup.message();
    failure->repro = "vdb_fuzz --seed " + std::to_string(seed);
    return true;
  }

  QueryGenerator generator(&schema, &rng, options.generator);
  for (int q = 0; q < options.queries_per_seed; ++q) {
    GeneratedQuery query = generator.Generate();
    ++stats->queries;
    CheckResult check =
        CheckQuery(&db, vm, query, options.check_environment_invariance,
                   options.check_engine_equivalence,
                   options.check_zone_map_equivalence);
    switch (check.outcome) {
      case Outcome::kMatch:
        ++stats->matched;
        continue;
      case Outcome::kSkip:
        ++stats->skipped;
        continue;
      case Outcome::kAgreedError:
        ++stats->agreed_errors;
        continue;
      case Outcome::kMismatch:
        break;
    }
    failure->seed = seed;
    failure->schema = schema.ToString();
    failure->original_sql = query.Sql();
    GeneratedQuery minimized =
        Shrink(&db, vm, std::move(query), options.check_environment_invariance,
               options.check_engine_equivalence,
               options.check_zone_map_equivalence, options.max_shrink_steps);
    CheckResult final_check =
        CheckQuery(&db, vm, minimized, options.check_environment_invariance,
                   options.check_engine_equivalence,
                   options.check_zone_map_equivalence);
    failure->sql = minimized.Sql();
    failure->detail = final_check.outcome == Outcome::kMismatch
                          ? final_check.detail
                          : check.detail;
    failure->repro = "vdb_fuzz --seed " + std::to_string(seed) +
                     " --queries " + std::to_string(options.queries_per_seed);
    return true;
  }
  return false;
}

}  // namespace vdb::fuzz
