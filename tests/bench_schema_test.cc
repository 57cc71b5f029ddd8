// Golden/regression coverage for the bench harness: the smoke suite's
// document validates against the checked-in schema (tools/bench_schema.json
// — drift fails here before it fails in CI), and the cross-subsystem
// counter invariants hold end-to-end: every lock the lock manager granted
// was observed by a transaction, and every WAL byte written is accounted by
// whole blocks. The suite runs once per test binary (quick mode) and the
// tests assert on the shared document.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "tools/bench_suites.h"

namespace tdp {
namespace {

const json::Value& SmokeDoc() {
  static const json::Value* const doc = [] {
    // Quick mode sizes the suite for CI; the invariants are size-independent.
    ::setenv("TDP_QUICK_BENCH", "1", 1);
    return new json::Value(tools::RunSuite("smoke"));
  }();
  return *doc;
}

json::Value LoadSchema() {
  std::ifstream in(TDP_SCHEMA_PATH);
  EXPECT_TRUE(in.good()) << "cannot open " << TDP_SCHEMA_PATH;
  std::ostringstream ss;
  ss << in.rdbuf();
  json::Value schema;
  std::string err;
  EXPECT_TRUE(json::Value::Parse(ss.str(), &schema, &err)) << err;
  return schema;
}

int64_t Counter(const json::Value& exp, const std::string& name) {
  const json::Value* c = exp.Find("metrics")->Find("counters")->Find(name);
  return c != nullptr ? c->as_int() : -1;
}

TEST(BenchSchemaTest, SmokeSuiteMatchesCheckedInSchema) {
  const json::Value schema = LoadSchema();
  const std::vector<std::string> problems =
      tools::ValidateAgainstSchema(SmokeDoc(), schema);
  for (const std::string& p : problems) ADD_FAILURE() << "schema drift: " << p;
}

TEST(BenchSchemaTest, SmokeSuiteCoversAllEngines) {
  const json::Value& doc = SmokeDoc();
  EXPECT_EQ(doc.Find("schema_version")->as_int(), 1);
  EXPECT_EQ(doc.Find("suite")->as_string(), "smoke");
  bool mysql = false, pg = false, volt = false;
  for (const json::Value& e : doc.Find("experiments")->items()) {
    const std::string engine = e.Find("engine")->as_string();
    mysql |= engine == "mysqlmini";
    pg |= engine == "pgmini";
    volt |= engine == "voltmini";
    EXPECT_GT(e.Find("latency")->Find("count")->as_int(), 0)
        << e.Find("name")->as_string();
  }
  EXPECT_TRUE(mysql);
  EXPECT_TRUE(pg);
  EXPECT_TRUE(volt);
}

TEST(BenchSchemaTest, SmokeSuiteInvariantsHold) {
  const std::vector<std::string> problems =
      tools::CheckInvariants(SmokeDoc());
  for (const std::string& p : problems)
    ADD_FAILURE() << "invariant violated: " << p;
}

TEST(BenchSchemaTest, LockGrantsMatchTxnObservedAcquisitions) {
  for (const json::Value& e : SmokeDoc().Find("experiments")->items()) {
    const std::string engine = e.Find("engine")->as_string();
    const std::string name = e.Find("name")->as_string();
    if (engine == "mysqlmini") {
      EXPECT_EQ(Counter(e, "lock.grants.total"),
                Counter(e, "mysql.lock_acquisitions"))
          << name;
      EXPECT_GT(Counter(e, "lock.grants.total"), 0) << name;
    } else if (engine == "pgmini") {
      EXPECT_EQ(Counter(e, "lock.grants.total"),
                Counter(e, "pg.lock_acquisitions"))
          << name;
      EXPECT_GT(Counter(e, "lock.grants.total"), 0) << name;
    }
  }
}

TEST(BenchSchemaTest, WalBytesAreWholeBlocksAndRedoBytesBalance) {
  for (const json::Value& e : SmokeDoc().Find("experiments")->items()) {
    const std::string engine = e.Find("engine")->as_string();
    const std::string name = e.Find("name")->as_string();
    if (engine == "pgmini") {
      const int64_t block =
          e.Find("params")->Find("wal_block_bytes")->as_int();
      ASSERT_GT(block, 0) << name;
      EXPECT_EQ(Counter(e, "wal.bytes_written"),
                Counter(e, "wal.blocks_written") * block)
          << name;
      EXPECT_GT(Counter(e, "wal.commits"), 0) << name;
    } else if (engine == "mysqlmini" &&
               Counter(e, "log.degraded_commits") == 0) {
      // Eager-flush runs quiesce durable: redo bytes the engine committed
      // equal the bytes the log flushed.
      const json::Value* check = e.Find("params")->Find("check_redo_bytes");
      if (check != nullptr && check->as_bool()) {
        EXPECT_EQ(Counter(e, "log.bytes_written"),
                  Counter(e, "mysql.redo_bytes"))
            << name;
      }
    }
  }
}

// Self-test of the validator: the schema gate only protects BENCH_*.json if
// missing keys and type changes actually register as drift.
TEST(BenchSchemaTest, ValidatorDetectsMissingKeyAndTypeDrift) {
  json::Value schema = json::Value::Object();
  schema.Set("a", json::Value::Str("int"));
  schema.Set("b", json::Value::Str("string"));

  json::Value doc = json::Value::Object();
  doc.Set("a", json::Value::Str("not-a-number"));  // type drift
  // "b" missing entirely.
  doc.Set("extra", json::Value::Int(1));  // extras are allowed
  const std::vector<std::string> problems =
      tools::ValidateAgainstSchema(doc, schema);
  ASSERT_EQ(problems.size(), 2u);

  json::Value ok = json::Value::Object();
  ok.Set("a", json::Value::Int(3));
  ok.Set("b", json::Value::Str("x"));
  EXPECT_TRUE(tools::ValidateAgainstSchema(ok, schema).empty());

  // Array schemas apply their single element shape to every element.
  json::Value arr_schema = json::Value::Object();
  json::Value elems = json::Value::Array();
  elems.Append(json::Value::Str("number"));
  arr_schema.Set("xs", std::move(elems));
  json::Value arr_doc = json::Value::Object();
  json::Value xs = json::Value::Array();
  xs.Append(json::Value::Number(1.5));
  xs.Append(json::Value::Str("drift"));
  arr_doc.Set("xs", std::move(xs));
  EXPECT_EQ(tools::ValidateAgainstSchema(arr_doc, arr_schema).size(), 1u);
}

}  // namespace
}  // namespace tdp
