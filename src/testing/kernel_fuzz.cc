#include "testing/kernel_fuzz.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/synthetic.h"
#include "exec/database.h"
#include "sim/machine.h"
#include "sim/virtual_machine.h"
#include "testing/generator.h"
#include "util/random.h"

namespace vdb::fuzz {

namespace {

using catalog::Tuple;
using catalog::TypeId;
using catalog::Value;

/// Bitwise value equality: NULLs match NULLs, doubles compare by bit
/// pattern (NaN payloads and signed zeros included), everything else by
/// exact comparison.
bool BitwiseValueEq(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  if (a.type() != b.type()) return false;
  if (a.type() == TypeId::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return Value::Compare(a, b) == 0;
}

std::string RowToString(const Tuple& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].is_null() ? "NULL" : row[i].ToString();
  }
  return out + ")";
}

/// Ordered, bitwise row comparison. Ordering matters: both engines run
/// the same plan shape, so even unordered queries must emit rows in the
/// same sequence.
bool RowsBitwiseEqual(const std::vector<Tuple>& a, const std::vector<Tuple>& b,
                      std::string* detail) {
  if (a.size() != b.size()) {
    *detail = "row count " + std::to_string(a.size()) + " vs " +
              std::to_string(b.size());
    return false;
  }
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) {
      *detail = "row " + std::to_string(r) + " width differs";
      return false;
    }
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!BitwiseValueEq(a[r][c], b[r][c])) {
        *detail = "row " + std::to_string(r) + ": " + RowToString(a[r]) +
                  " vs " + RowToString(b[r]);
        return false;
      }
    }
  }
  return true;
}

/// Simulated-charge comparison, held to the differential harness's
/// established tolerance: the two engines accumulate the same charges in
/// different association orders.
bool ChargesEqual(const exec::QueryResult& a, const exec::QueryResult& b,
                  std::string* detail) {
  const auto close = [](double x, double y) {
    return std::fabs(x - y) <=
           1e-12 + 1e-9 * std::max(std::fabs(x), std::fabs(y));
  };
  std::ostringstream out;
  out.precision(17);
  if (!close(a.elapsed_seconds, b.elapsed_seconds)) {
    out << "elapsed " << a.elapsed_seconds << " vs " << b.elapsed_seconds;
  } else if (!close(a.cpu_seconds, b.cpu_seconds)) {
    out << "cpu " << a.cpu_seconds << " vs " << b.cpu_seconds;
  } else if (!close(a.io_seconds, b.io_seconds)) {
    out << "io " << a.io_seconds << " vs " << b.io_seconds;
  } else if (a.physical_reads != b.physical_reads) {
    out << "physical reads " << a.physical_reads << " vs "
        << b.physical_reads;
  } else {
    return true;
  }
  *detail = out.str();
  return false;
}

// ---------------------------------------------------------------------------
// Kernel-shaped query templates over the stress table.

constexpr const char* kStressTable = "kstress";

const char* PickCmp(Random* rng) {
  static constexpr const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  return kOps[rng->Uniform(6)];
}

const char* PickArith(Random* rng) {
  static constexpr const char* kOps[] = {"+", "-", "*"};
  return kOps[rng->Uniform(3)];
}

std::string PickIntConst(Random* rng) {
  static constexpr const char* kConsts[] = {
      "-2", "-1", "0", "1", "2", "3", "7", "42", "1000000007",
      "-4000000000000000000", "4000000000000000000"};
  return kConsts[rng->Uniform(sizeof(kConsts) / sizeof(kConsts[0]))];
}

std::string PickDoubleConst(Random* rng) {
  static constexpr const char* kConsts[] = {
      "0.0", "-0.0", "0.5", "-1.5", "123456.75", "250000.125"};
  return kConsts[rng->Uniform(sizeof(kConsts) / sizeof(kConsts[0]))];
}

const char* PickIntCol(Random* rng) {
  // `b` spans +-4e18, so it only appears in comparisons (never
  // arithmetic, which must stay overflow-free for the row engine).
  static constexpr const char* kCols[] = {"k0", "a", "b"};
  return kCols[rng->Uniform(3)];
}

const char* PickSmallIntCol(Random* rng) {
  static constexpr const char* kCols[] = {"k0", "a"};
  return kCols[rng->Uniform(2)];
}

const char* PickDoubleCol(Random* rng) {
  static constexpr const char* kCols[] = {"x", "y"};
  return kCols[rng->Uniform(2)];
}

/// One random kernel-shaped statement: filter compares (col/const and
/// col/col, both channels), AND/OR trees (the compare *eval* kernels),
/// fused arithmetic projections (both operand orders, plus mixed-type
/// shapes that must fall back), and occasional LIMIT to cross the capped
/// charge path.
std::string GenerateTemplateQuery(Random* rng) {
  std::string sql;
  switch (rng->Uniform(8)) {
    case 0:
      sql = std::string("SELECT k0 FROM ") + kStressTable + " WHERE " +
            PickIntCol(rng) + " " + PickCmp(rng) + " " + PickIntConst(rng);
      break;
    case 1:
      sql = std::string("SELECT k0 FROM ") + kStressTable + " WHERE " +
            PickDoubleCol(rng) + " " + PickCmp(rng) + " " +
            PickDoubleConst(rng);
      break;
    case 2:
      sql = std::string("SELECT k0 FROM ") + kStressTable + " WHERE " +
            PickIntCol(rng) + " " + PickCmp(rng) + " " + PickIntCol(rng);
      break;
    case 3:
      sql = std::string("SELECT k0 FROM ") + kStressTable + " WHERE " +
            PickDoubleCol(rng) + " " + PickCmp(rng) + " " +
            PickDoubleCol(rng);
      break;
    case 4:
      // AND/OR forces the comparison *EvaluateBatch* kernels (the
      // conjunction evaluates both sides as boolean vectors).
      sql = std::string("SELECT k0 FROM ") + kStressTable + " WHERE " +
            PickIntCol(rng) + " " + PickCmp(rng) + " " + PickIntConst(rng) +
            (rng->Bernoulli(0.5) ? " AND " : " OR ") + PickDoubleCol(rng) +
            " " + PickCmp(rng) + " " + PickDoubleConst(rng);
      break;
    case 5:
      // Fused arithmetic, inner on the left: (x op y) op z.
      sql = std::string("SELECT k0, ") + PickSmallIntCol(rng) + " " +
            PickArith(rng) + " " + PickSmallIntCol(rng) + " " +
            PickArith(rng) + " " + PickIntConst(rng) + " FROM " +
            kStressTable;
      break;
    case 6:
      // Fused arithmetic, inner on the right: z op (x op y). The double
      // channel here also exercises the all-double fast path.
      sql = std::string("SELECT k0, ") + PickDoubleConst(rng) + " " +
            PickArith(rng) + " (" + PickDoubleCol(rng) + " " +
            PickArith(rng) + " " + PickDoubleCol(rng) + ") FROM " +
            kStressTable;
      break;
    default:
      // Mixed int/double arithmetic: eligible-looking but must fall back
      // (fused double channel requires all-double operands).
      sql = std::string("SELECT k0, ") + PickSmallIntCol(rng) + " " +
            PickArith(rng) + " " + PickDoubleCol(rng) + " " + PickArith(rng) +
            " " + PickDoubleConst(rng) + " FROM " + kStressTable;
      break;
  }
  if (rng->Bernoulli(0.3)) sql += " LIMIT " + std::to_string(rng->Uniform(200));
  return sql;
}

Result<exec::QueryResult> RunOnEngine(exec::Database* db,
                                      const sim::VirtualMachine& vm,
                                      const std::string& sql,
                                      exec::ExecMode mode) {
  db->set_exec_mode(mode);
  // Both engines start cold, so buffer-pool state can never explain (or
  // mask) a charge difference.
  (void)db->DropCaches();
  return db->Execute(sql, vm);
}

/// Runs one statement on the batch engine (which calls the kernels) and
/// on the row engine; appends a violation description on any divergence.
/// Returns true when the two engines matched.
bool CheckStatement(exec::Database* db, const sim::VirtualMachine& vm,
                    const std::string& sql, uint64_t seed,
                    KernelFuzzStats* stats,
                    std::vector<std::string>* violations) {
  ++stats->queries;
  const Result<exec::QueryResult> batch =
      RunOnEngine(db, vm, sql, exec::ExecMode::kBatch);
  const Result<exec::QueryResult> row =
      RunOnEngine(db, vm, sql, exec::ExecMode::kRow);
  db->set_exec_mode(exec::ExecMode::kBatch);

  auto report = [&](const std::string& axis, const std::string& detail) {
    std::ostringstream out;
    out << "kernel divergence (seed " << seed << ", " << axis << "): "
        << detail << "\n  sql: " << sql << "\n  repro:  vdb_fuzz --seed "
        << seed << " --mode kernels";
    violations->push_back(out.str());
  };

  if (!batch.ok() || !row.ok()) {
    // Errors must agree (same code); a statement the dialect rejects is a
    // skip, not a kernel result.
    if (batch.ok() != row.ok()) {
      report("error agreement",
             std::string("batch=") +
                 (batch.ok() ? "rows" : batch.status().ToString()) +
                 " row-engine=" +
                 (row.ok() ? "rows" : row.status().ToString()));
      return false;
    }
    if (batch.status().code() != row.status().code()) {
      report("error code",
             batch.status().ToString() + " vs " + row.status().ToString());
      return false;
    }
    ++stats->skipped;
    return true;
  }

  std::string detail;
  if (!RowsBitwiseEqual(batch->rows, row->rows, &detail)) {
    report("batch vs row engine rows", detail);
    return false;
  }
  if (!ChargesEqual(*batch, *row, &detail)) {
    report("batch vs row engine charges", detail);
    return false;
  }
  ++stats->matched;
  return true;
}

}  // namespace

std::string KernelFuzzStats::ToString() const {
  std::ostringstream out;
  out << queries << " statements: " << matched << " matched, " << skipped
      << " skipped";
  return out.str();
}

std::vector<std::string> RunKernelFuzzSeed(uint64_t seed,
                                           KernelFuzzStats* stats) {
  std::vector<std::string> violations;
  Random rng(seed);

  exec::Database db;
  sim::VirtualMachine vm("vm-kernel-fuzz", sim::MachineSpec::Small(),
                         sim::HypervisorModel::Ideal(),
                         sim::ResourceShare(1.0, 1.0, 1.0));
  Status setup = db.ApplyVmConfig(vm);
  if (!setup.ok()) {
    violations.push_back("setup failed: " + setup.ToString());
    return violations;
  }

  // The stress table crosses several batch boundaries and carries the
  // adversarial ranges the kernels special-case: tiny dense domains,
  // near-overflow int64, mixed-sign doubles, and NULL-heavy columns.
  const uint64_t stress_rows = 1500 + rng.Uniform(1500);
  std::vector<datagen::ColumnSpec> stress;
  stress.push_back({"k0", TypeId::kInt64, datagen::Distribution::kSequential,
                    0, 0, 0.8, 0.0, 16});
  stress.push_back({"a", TypeId::kInt64, datagen::Distribution::kUniform, -3,
                    3, 0.8, 0.2, 16});
  stress.push_back({"b", TypeId::kInt64, datagen::Distribution::kUniform,
                    -4.0e18, 4.0e18, 0.8, 0.1, 16});
  stress.push_back({"x", TypeId::kDouble, datagen::Distribution::kUniformReal,
                    -1.0e6, 1.0e6, 0.8, 0.15, 16});
  stress.push_back({"y", TypeId::kDouble, datagen::Distribution::kUniformReal,
                    -1.0, 1.0, 0.8, 0.0, 16});
  setup = datagen::GenerateTable(db.catalog(), kStressTable, stress,
                                 stress_rows, seed ^ 0x6b65726eULL);
  if (!setup.ok()) {
    violations.push_back("stress table failed: " + setup.ToString());
    return violations;
  }

  // A small random schema for the generic generator: arbitrary expression
  // trees, joins, and aggregates on top of the shaped templates.
  GeneratorOptions options;
  options.max_from_items = 2;
  SchemaPlan schema = GenerateSchemaPlan(&rng, options);
  setup = schema.Materialize(db.catalog());
  if (!setup.ok()) {
    violations.push_back("schema materialization failed: " + setup.ToString());
    return violations;
  }

  for (int q = 0; q < 12; ++q) {
    CheckStatement(&db, vm, GenerateTemplateQuery(&rng), seed, stats,
                   &violations);
  }
  QueryGenerator generator(&schema, &rng, options);
  for (int q = 0; q < 5; ++q) {
    CheckStatement(&db, vm, generator.Generate().Sql(), seed, stats,
                   &violations);
  }
  return violations;
}

}  // namespace vdb::fuzz
