// Request generators and the verdict oracle of the wire-to-probe benchmark.
//
// Every request is an update text over the depth-4 chain view
// (fixtures::ChainViewQuery(4)) with the verdict and rows_affected the
// server must answer. The expectation comes from the seeding rule of
// fixtures::PopulateChain alone: level i holds keys 0..rows-1, and row r of
// level i references row r of level i-1, so each key of level L heads a
// chain of exactly one row per level below it. Nothing here runs the
// program.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/frame.h"

namespace perfbench {

using ufilter::net::Verdict;

inline constexpr int kDepth = 4;

/// One generated request and the answer the oracle expects for it.
struct Op {
  std::string text;
  Verdict verdict = Verdict::kExecuted;
  int64_t rows = 0;
};

// --- Update texts ----------------------------------------------------------

inline std::string L(int level) { return std::to_string(level); }

/// FOR clause binding $root and $e0..$e<level>.
inline std::string ForClause(int level) {
  std::string s = "FOR $root IN document(\"V.xml\")";
  std::string parent = "root";
  for (int i = 0; i <= level; ++i) {
    s += ",\n    $e" + L(i) + " IN $" + parent + "/e" + L(i);
    parent = "e" + L(i);
  }
  return s;
}

inline std::string Anchor(int level) {
  return level == 0 ? "$root" : "$e" + L(level - 1);
}

inline std::string KeyIs(int level, int64_t key) {
  return "$e" + L(level) + "/k" + L(level) + "/text() = " +
         std::to_string(key);
}

inline std::string DeleteText(int level, int64_t key) {
  return ForClause(level) + "\nWHERE " + KeyIs(level, key) + "\nUPDATE " +
         Anchor(level) + " {\n  DELETE $e" + L(level) + "\n}";
}

inline std::string ReplaceText(int level, int64_t key,
                               const std::string& value) {
  return ForClause(level) + "\nWHERE " + KeyIs(level, key) + "\nUPDATE " +
         Anchor(level) + " {\n  REPLACE $e" + L(level) + "/v" + L(level) +
         " WITH <v" + L(level) + ">" + value + "</v" + L(level) + ">\n}";
}

/// REPLACE guarded by the current value: its context matches (executed,
/// one row) only while v<level> of `key` still equals `current`. This is
/// the read-back probe for acknowledged value writes.
inline std::string GuardedReplaceText(int level, int64_t key,
                                      const std::string& current,
                                      const std::string& value) {
  return ForClause(level) + "\nWHERE " + KeyIs(level, key) + " AND $e" +
         L(level) + "/v" + L(level) + "/text() = \"" + current +
         "\"\nUPDATE " + Anchor(level) + " {\n  REPLACE $e" + L(level) +
         "/v" + L(level) + " WITH <v" + L(level) + ">" + value + "</v" +
         L(level) + ">\n}";
}

/// INSERT of a childless e<parent_level+1> element under the parent with
/// key `parent_key`.
inline std::string InsertText(int parent_level, int64_t parent_key,
                              int64_t key, const std::string& value) {
  const std::string c = L(parent_level + 1);
  return ForClause(parent_level) + "\nWHERE " +
         KeyIs(parent_level, parent_key) + "\nUPDATE $e" + L(parent_level) +
         " {\n  INSERT <e" + c + "><k" + c + ">" + std::to_string(key) +
         "</k" + c + "><v" + c + ">" + value + "</v" + c + "></e" + c +
         ">\n}";
}

/// REPLACE of a key column that a view join predicate uses (level < 3).
inline std::string ReplaceKeyText(int level, int64_t key, int64_t new_key) {
  return ForClause(level) + "\nWHERE " + KeyIs(level, key) + "\nUPDATE " +
         Anchor(level) + " {\n  REPLACE $e" + L(level) + "/k" + L(level) +
         " WITH <k" + L(level) + ">" + std::to_string(new_key) + "</k" +
         L(level) + ">\n}";
}

// --- Oracle ----------------------------------------------------------------

/// Expected answers on a freshly seeded chain of `rows` rows per level,
/// for check-only requests (and for applies on rows nothing else touched).
class Oracle {
 public:
  explicit Oracle(int64_t rows) : rows_(rows) {}
  int64_t rows() const { return rows_; }
  bool Exists(int64_t key) const { return key >= 0 && key < rows_; }

  /// Key delete at `level`: an existing key cascades to one row per level
  /// from `level` down (depth - level rows); a missing key is the
  /// zero-tuple delete, executed with 0 rows.
  Op Delete(int level, int64_t key) const {
    return {DeleteText(level, key), Verdict::kExecuted,
            Exists(key) ? kDepth - level : 0};
  }
  /// Value REPLACE: one row when the key exists; otherwise the update
  /// context matches nothing (data conflict).
  Op Replace(int level, int64_t key, const std::string& value) const {
    if (!Exists(key)) return {ReplaceText(level, key, value),
                              Verdict::kDataConflict, 0};
    return {ReplaceText(level, key, value), Verdict::kExecuted, 1};
  }
  /// Leaf INSERT: data conflict when the parent is missing or the key is
  /// taken; otherwise one row.
  Op Insert(int64_t parent_key, int64_t key, const std::string& value) const {
    const bool ok = Exists(parent_key) && !Exists(key);
    return {InsertText(kDepth - 2, parent_key, key, value),
            ok ? Verdict::kExecuted : Verdict::kDataConflict, ok ? 1 : 0};
  }
  /// Key-column REPLACE at a level whose key a view predicate joins on:
  /// untranslatable (STAR, step 2) whatever the data.
  Op ReplaceKey(int level, int64_t key, int64_t new_key) const {
    return {ReplaceKeyText(level, key, new_key), Verdict::kUntranslatable, 0};
  }

 private:
  int64_t rows_;
};

// --- Generators ------------------------------------------------------------

using Rng = std::mt19937_64;

inline Rng MakeRng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream)};
  return Rng(seq);
}

inline int64_t Uniform(Rng& rng, int64_t n) {
  return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
}

inline std::string RandomValue(Rng& rng) {
  static const char kHex[] = "0123456789abcdef";
  std::string v = "x";
  for (int i = 0; i < 12; ++i) v += kHex[rng() & 15];
  return v;
}

/// hot_checks: a fixed pool of 48 templates. 48 keeps every shard of the
/// 128-entry, 8-shard plan cache under its 16-entry share with near
/// certainty, so after the first pass every request is a cache hit.
inline std::vector<Op> HotPool(const Oracle& o, Rng& rng) {
  const int64_t n = o.rows();
  std::vector<Op> pool;
  for (int level = 0; level < kDepth; ++level) {
    for (int i = 0; i < 3; ++i) pool.push_back(o.Delete(level, Uniform(rng, n)));
    pool.push_back(o.Delete(level, n + Uniform(rng, n)));  // missing key
  }
  for (int i = 0; i < 10; ++i) {
    pool.push_back(o.Replace(kDepth - 1, Uniform(rng, n), RandomValue(rng)));
  }
  for (int i = 0; i < 8; ++i) {  // fresh keys
    pool.push_back(o.Insert(Uniform(rng, n), n + i * 1000 + Uniform(rng, 1000),
                            RandomValue(rng)));
  }
  for (int i = 0; i < 8; ++i) {  // clashing keys
    pool.push_back(o.Insert(Uniform(rng, n), Uniform(rng, n), RandomValue(rng)));
  }
  for (int level = 0; level < kDepth - 1; ++level) {
    for (int i = 0; i < 2; ++i) {
      pool.push_back(o.ReplaceKey(level, Uniform(rng, n), n + Uniform(rng, n)));
    }
  }
  return pool;
}

/// cold_checks: the hot shapes, but keys range over the key space and far
/// beyond it and values are random, so nearly every text is new.
inline Op ColdOp(const Oracle& o, Rng& rng) {
  const int64_t n = o.rows();
  auto key = [&] {
    return (rng() & 1) ? Uniform(rng, n) : n + Uniform(rng, 1'000'000);
  };
  const int64_t shape = Uniform(rng, 48);
  if (shape < 16) return o.Delete(static_cast<int>(shape % kDepth), key());
  if (shape < 26) return o.Replace(kDepth - 1, key(), RandomValue(rng));
  if (shape < 42) return o.Insert(key(), key(), RandomValue(rng));
  return o.ReplaceKey(static_cast<int>(shape % (kDepth - 1)), key(),
                      n + Uniform(rng, 1'000'000));
}

/// large_view_deletes: 18 key deletes at levels 1-3 (their anchor probe
/// enumerates the view) and 6 key-addressed value REPLACEs as the control.
inline std::vector<Op> LargeDeletePool(const Oracle& o, Rng& rng) {
  const int64_t n = o.rows();
  std::vector<Op> pool;
  for (int level = 1; level < kDepth; ++level) {
    for (int i = 0; i < 6; ++i) pool.push_back(o.Delete(level, Uniform(rng, n)));
    for (int i = 0; i < 2; ++i) {
      pool.push_back(o.Replace(level, Uniform(rng, n), RandomValue(rng)));
    }
  }
  return pool;
}

/// write_mix readers: check-only shapes that touch O(1) rows and whose
/// answer no apply of the stream can change. The applies only rewrite
/// values and insert/delete leaves with keys >= kApplyKeyBase under parents
/// in the upper half of the key space, so level-0 chains of the lower half
/// keep exactly one row per level.
inline constexpr int64_t kApplyKeyBase = 10'000'000;
inline constexpr int64_t kReadFreshKeyBase = 50'000'000;

inline Op ReadOp(const Oracle& o, Rng& rng) {
  const int64_t n = o.rows();
  switch (Uniform(rng, 6)) {
    case 0:
      return o.Replace(static_cast<int>(Uniform(rng, kDepth)), Uniform(rng, n),
                       RandomValue(rng));
    case 1:
      return o.Insert(Uniform(rng, n), Uniform(rng, n), RandomValue(rng));
    case 2:
      return o.Insert(Uniform(rng, n),
                      kReadFreshKeyBase + Uniform(rng, 1'000'000),
                      RandomValue(rng));
    case 3:
      return o.ReplaceKey(static_cast<int>(Uniform(rng, kDepth - 1)),
                          Uniform(rng, n), n + Uniform(rng, n));
    case 4:
      return o.Delete(0, Uniform(rng, n / 2));
    default:
      return o.Delete(0, n + Uniform(rng, 1'000'000));
  }
}

// --- write_mix apply stream ------------------------------------------------

/// The kinds of apply the open-loop stream sends.
enum class ApplyKind { kReplace, kInsert, kDelete };

struct Apply {
  ApplyKind kind = ApplyKind::kReplace;
  int level = 0;
  int64_t key = 0;
  int64_t parent = 0;
  std::string value;
  /// Inserts only: polled on the follower until visible (never deleted).
  bool sampled = false;
  Op op;
};

/// Plans the apply stream: value REPLACEs at every level on keys that no
/// other apply touches (a per-level permutation, so the last value of each
/// key is known exactly), leaf inserts with fresh keys, and deletes of
/// earlier inserts whose executed acknowledgement has been seen.
class ApplyPlanner {
 public:
  ApplyPlanner(const Oracle& o, uint64_t seed)
      : oracle_(o), rng_(MakeRng(seed, 7)) {
    for (auto& b : offset_) b = Uniform(rng_, o.rows());
  }

  /// The i-th apply. `deletable` is an acknowledged, unsampled insert key
  /// (or -1 when none is available, in which case a REPLACE is sent).
  Apply Next(int64_t i, int64_t deletable) {
    Apply a;
    const int64_t slot = i % 10;
    a.value = "w" + std::to_string(i) + "_" + RandomValue(rng_);
    if (slot >= 8 && deletable >= 0) {
      a.kind = ApplyKind::kDelete;
      a.level = kDepth - 1;
      a.key = deletable;
      a.op = {DeleteText(a.level, a.key), Verdict::kExecuted, 1};
    } else if (slot >= 5 && slot < 8) {
      a.kind = ApplyKind::kInsert;
      a.level = kDepth - 1;
      a.key = kApplyKeyBase + i;
      a.parent = oracle_.rows() / 2 + Uniform(rng_, oracle_.rows() / 2);
      a.sampled = (inserts_++ % 4) == 0;
      a.op = oracle_.Insert(a.parent, a.key, a.value);
    } else {
      a.kind = ApplyKind::kReplace;
      a.level = static_cast<int>(replaces_ % kDepth);
      // 7919 is coprime to every row count the workloads use (powers of
      // 2 and 5), so j -> (7919 j + b) mod rows is a permutation.
      const int64_t j = replaces_ / kDepth;
      a.key = (7919 * j + offset_[a.level]) % oracle_.rows();
      ++replaces_;
      a.op = oracle_.Replace(a.level, a.key, a.value);
    }
    return a;
  }

 private:
  const Oracle& oracle_;
  Rng rng_;
  int64_t offset_[kDepth] = {};
  int64_t replaces_ = 0;
  int64_t inserts_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
