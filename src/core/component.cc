#include "core/component.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace maybms {

Value ExistsToken() { return Value::Bool(true); }

ComponentRow Component::GetRow(size_t r) const {
  ComponentRow row;
  row.values.reserve(slots_.size());
  for (size_t s = 0; s < slots_.size(); ++s) {
    row.values.push_back(cols_[s][r].ToValue());
  }
  row.prob = probs_[r];
  return row;
}

Status Component::AddRow(ComponentRow row) {
  if (row.values.size() != slots_.size()) {
    return Status::InvalidArgument(
        StrFormat("component row arity %zu != slot count %zu",
                  row.values.size(), slots_.size()));
  }
  if (row.prob < 0.0 || row.prob > 1.0 + 1e-9) {
    return Status::OutOfRange(
        StrFormat("row probability %g outside [0,1]", row.prob));
  }
  InvalidateStats();
  for (size_t s = 0; s < slots_.size(); ++s) {
    cols_[s].push_back(PackedValue::FromValue(row.values[s]));
  }
  probs_.push_back(row.prob);
  return Status::OK();
}

Status Component::AddPackedRow(const std::vector<PackedValue>& values,
                               double prob) {
  if (values.size() != slots_.size()) {
    return Status::InvalidArgument(
        StrFormat("component row arity %zu != slot count %zu", values.size(),
                  slots_.size()));
  }
  if (prob < 0.0 || prob > 1.0 + 1e-9) {
    return Status::OutOfRange(
        StrFormat("row probability %g outside [0,1]", prob));
  }
  InvalidateStats();
  for (size_t s = 0; s < slots_.size(); ++s) cols_[s].push_back(values[s]);
  probs_.push_back(prob);
  return Status::OK();
}

uint32_t Component::AddSlot(Slot slot, const Value& fill) {
  InvalidateStats();
  slots_.push_back(std::move(slot));
  cols_.emplace_back(NumRows(), PackedValue::FromValue(fill));
  return static_cast<uint32_t>(slots_.size() - 1);
}

uint32_t Component::AddSlotWithValues(Slot slot, std::vector<Value> values) {
  MAYBMS_DCHECK(values.size() == NumRows());
  std::vector<PackedValue> column;
  column.reserve(values.size());
  for (const Value& v : values) column.push_back(PackedValue::FromValue(v));
  return AddSlotWithPacked(std::move(slot), std::move(column));
}

uint32_t Component::AddSlotWithPacked(Slot slot,
                                      std::vector<PackedValue> column) {
  MAYBMS_DCHECK(column.size() == NumRows());
  InvalidateStats();
  slots_.push_back(std::move(slot));
  cols_.push_back(std::move(column));
  return static_cast<uint32_t>(slots_.size() - 1);
}

Result<Component> Component::FromColumns(
    std::vector<Slot> slots, std::vector<std::vector<PackedValue>> cols,
    std::vector<double> probs) {
  if (cols.size() != slots.size()) {
    return Status::InvalidArgument(
        StrFormat("component column count %zu != slot count %zu", cols.size(),
                  slots.size()));
  }
  for (const auto& col : cols) {
    if (col.size() != probs.size()) {
      return Status::InvalidArgument(
          StrFormat("component column length %zu != row count %zu",
                    col.size(), probs.size()));
    }
  }
  for (double p : probs) {
    if (!(p >= 0.0 && p <= 1.0 + 1e-9)) {
      return Status::OutOfRange(
          StrFormat("row probability %g outside [0,1]", p));
    }
  }
  Component c;
  c.slots_ = std::move(slots);
  c.cols_ = std::move(cols);
  c.probs_ = std::move(probs);
  return c;
}

double Component::TotalMass() const {
  double total = 0.0;
  for (double p : probs_) total += p;
  return total;
}

Status Component::Renormalize() {
  double mass = TotalMass();
  if (mass <= 0.0) {
    return Status::Inconsistent("component has zero probability mass");
  }
  InvalidateContentHash();  // stats survive: row/distinct counts unchanged
  double inv = 1.0 / mass;
  for (double& p : probs_) p *= inv;
  return Status::OK();
}

// Finds the first occurrence of every distinct row (`keep`, ascending)
// and the summed probability of each (`merged`). Returns whether some
// row repeats an earlier one.
bool Component::FindDuplicateRows(std::vector<uint32_t>* keep,
                                  std::vector<double>* merged) const {
  const size_t n = NumRows();
  const size_t k = NumSlots();
  if (n < 2) return false;

  // Row hashes, accumulated column-by-column for cache locality (every
  // row combines its slots in the same 0..k-1 order).
  std::vector<size_t> hashes(n, k);
  for (size_t s = 0; s < k; ++s) {
    const std::vector<PackedValue>& col = cols_[s];
    for (size_t r = 0; r < n; ++r) HashCombine(&hashes[r], col[r].Hash());
  }

  // Open-addressed table of kept-row handles: no per-row heap allocation.
  size_t cap = 16;
  while (cap < 2 * n) cap <<= 1;
  constexpr uint32_t kEmpty = UINT32_MAX;
  std::vector<uint32_t> table(cap, kEmpty);  // slot -> index into `keep`
  keep->clear();
  merged->clear();
  keep->reserve(n);
  merged->reserve(n);

  bool any_dup = false;
  const size_t mask = cap - 1;
  for (size_t r = 0; r < n; ++r) {
    size_t pos = hashes[r] & mask;
    uint32_t found = kEmpty;
    while (table[pos] != kEmpty) {
      uint32_t cand = table[pos];
      uint32_t orig = (*keep)[cand];
      if (hashes[orig] == hashes[r]) {
        bool eq = true;
        for (size_t s = 0; s < k; ++s) {
          if (!(cols_[s][orig] == cols_[s][r])) {
            eq = false;
            break;
          }
        }
        if (eq) {
          found = cand;
          break;
        }
      }
      pos = (pos + 1) & mask;
    }
    if (found != kEmpty) {
      (*merged)[found] += probs_[r];
      any_dup = true;
    } else {
      table[pos] = static_cast<uint32_t>(keep->size());
      keep->push_back(static_cast<uint32_t>(r));
      merged->push_back(probs_[r]);
    }
  }
  return any_dup;
}

bool Component::HasDuplicateRows() const {
  std::vector<uint32_t> keep;
  std::vector<double> merged;
  return FindDuplicateRows(&keep, &merged);
}

void Component::DedupRows() {
  std::vector<uint32_t> keep;
  std::vector<double> new_probs;
  if (!FindDuplicateRows(&keep, &new_probs)) return;
  // Gather the kept rows in place (keep is strictly ascending), then
  // install the merged probabilities.
  KeepRows(keep);
  probs_ = std::move(new_probs);
}

void Component::DropSlots(const std::vector<uint32_t>& sorted_slots) {
  if (sorted_slots.empty()) return;
  InvalidateStats();
  // Columnar marginalization: dropping a slot is dropping its column —
  // no per-row work at all; the dedup afterwards merges the projections.
  std::vector<bool> drop(slots_.size(), false);
  for (uint32_t s : sorted_slots) {
    MAYBMS_DCHECK(s < slots_.size());
    drop[s] = true;
  }
  size_t kept = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (drop[s]) continue;
    if (kept != s) {
      slots_[kept] = std::move(slots_[s]);
      cols_[kept] = std::move(cols_[s]);
    }
    ++kept;
  }
  slots_.resize(kept);
  cols_.resize(kept);
  DedupRows();
}

void Component::KeepRows(const std::vector<uint32_t>& keep) {
  MAYBMS_DCHECK(std::is_sorted(keep.begin(), keep.end()));
  if (keep.size() == NumRows()) return;
  InvalidateStats();
  for (size_t s = 0; s < cols_.size(); ++s) {
    std::vector<PackedValue>& col = cols_[s];
    for (size_t i = 0; i < keep.size(); ++i) col[i] = col[keep[i]];
    col.resize(keep.size());
  }
  for (size_t i = 0; i < keep.size(); ++i) probs_[i] = probs_[keep[i]];
  probs_.resize(keep.size());
}

void Component::DropZeroRows(double eps) {
  std::vector<uint32_t> keep;
  keep.reserve(NumRows());
  for (size_t r = 0; r < NumRows(); ++r) {
    if (probs_[r] > eps) keep.push_back(static_cast<uint32_t>(r));
  }
  KeepRows(keep);
}

Result<size_t> Component::ProductRows(size_t an, size_t bn,
                                      size_t max_rows) {
  size_t n = an * bn;
  if (an != 0 && n / an != bn) {
    return Status::ResourceExhausted("component product row count overflow");
  }
  if (n > max_rows) {
    return Status::ResourceExhausted(
        StrFormat("component product would have %zu rows (budget %zu)", n,
                  max_rows));
  }
  return n;
}

Result<Component> Component::Product(const Component& a, const Component& b,
                                     size_t max_rows) {
  const size_t an = a.NumRows(), bn = b.NumRows();
  MAYBMS_ASSIGN_OR_RETURN(size_t n, ProductRows(an, bn, max_rows));
  Component out;
  out.slots_ = a.slots_;
  out.slots_.insert(out.slots_.end(), b.slots_.begin(), b.slots_.end());
  out.cols_.resize(out.slots_.size());
  // Left columns: each value repeated bn times. Right columns: the whole
  // column tiled an times. Pure memcpy-able appends, no per-row alloc.
  for (size_t s = 0; s < a.cols_.size(); ++s) {
    std::vector<PackedValue>& col = out.cols_[s];
    col.reserve(n);
    for (size_t i = 0; i < an; ++i) col.insert(col.end(), bn, a.cols_[s][i]);
  }
  for (size_t s = 0; s < b.cols_.size(); ++s) {
    std::vector<PackedValue>& col = out.cols_[a.cols_.size() + s];
    col.reserve(n);
    for (size_t i = 0; i < an; ++i) {
      col.insert(col.end(), b.cols_[s].begin(), b.cols_[s].end());
    }
  }
  out.probs_.reserve(n);
  for (size_t i = 0; i < an; ++i) {
    const double pa = a.probs_[i];
    for (size_t j = 0; j < bn; ++j) out.probs_.push_back(pa * b.probs_[j]);
  }
  return out;
}

const ComponentStats& Component::GetStats() const {
  std::shared_ptr<const ComponentStats> cached = std::atomic_load(&stats_);
  if (cached != nullptr) return *cached;
  auto s = std::make_shared<ComponentStats>();
  s->rows = NumRows();
  s->distinct.assign(slots_.size(), 0);
  std::unordered_set<PackedValue, PackedValueHash> seen;
  for (size_t c = 0; c < cols_.size(); ++c) {
    seen.clear();
    seen.insert(cols_[c].begin(), cols_[c].end());
    s->distinct[c] = seen.size();
  }
  // Install-if-absent: racing readers compute identical stats, the first
  // CAS wins and everyone returns the winning object. The reference stays
  // valid because only mutation (exclusive by contract) clears stats_.
  std::shared_ptr<const ComponentStats> expected;
  std::shared_ptr<const ComponentStats> fresh = std::move(s);
  if (std::atomic_compare_exchange_strong(&stats_, &expected, fresh)) {
    return *fresh;
  }
  return *expected;
}

uint64_t Component::ContentHash() const {
  uint64_t cached = content_hash_.load(std::memory_order_acquire);
  if (cached != 0) return cached;
  size_t seed = slots_.size();
  HashCombine(&seed, probs_.size());
  for (const Slot& s : slots_) {
    HashCombine(&seed, static_cast<size_t>(s.owner));
  }
  for (const auto& col : cols_) {
    for (const PackedValue& v : col) HashCombine(&seed, v.Hash());
  }
  for (double p : probs_) {
    uint64_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    HashCombine(&seed, static_cast<size_t>(bits));
  }
  uint64_t h = static_cast<uint64_t>(seed);
  if (h == 0) h = 1;  // 0 is the "unset" sentinel
  // Racing readers compute the same value; last store wins, harmlessly.
  content_hash_.store(h, std::memory_order_release);
  return h;
}

namespace {

// Bytes of one packed cell in the flat serialized model (1 tag byte +
// payload; strings add a 4-byte length prefix), matching
// Value::SerializedSize for the same logical value.
uint64_t FlatCellSize(const PackedValue& v) {
  switch (v.tag()) {
    case PackedTag::kNull:
    case PackedTag::kBottom:
      return 1;
    case PackedTag::kBool:
      return 2;
    case PackedTag::kInt:
    case PackedTag::kDouble:
      return 9;
    case PackedTag::kString:
      return 1 + 4 + v.as_string().size();
  }
  return 1;
}

}  // namespace

uint64_t Component::SerializedSize() const {
  uint64_t total = NumRows() * (4ull + 8ull);  // row header + probability
  for (const auto& col : cols_) {
    for (const PackedValue& v : col) total += FlatCellSize(v);
  }
  return total;
}

uint64_t Component::InternedSize() const {
  uint64_t total = 0;
  for (const auto& col : cols_) total += col.size() * sizeof(PackedValue);
  total += probs_.size() * sizeof(double);
  for (const Slot& s : slots_) total += sizeof(Slot) + s.label.size();
  return total;
}

void Component::CollectStrings(
    std::unordered_set<std::string_view>* out) const {
  for (const auto& col : cols_) {
    for (const PackedValue& v : col) {
      if (v.is_string()) out->insert(v.as_string());
    }
  }
}

std::string Component::ToString() const {
  std::vector<size_t> width(slots_.size());
  for (size_t c = 0; c < slots_.size(); ++c) width[c] = slots_[c].label.size();
  std::vector<std::vector<std::string>> cells(NumRows());
  std::vector<std::string> probs(NumRows());
  size_t pwidth = 1;
  for (size_t r = 0; r < NumRows(); ++r) {
    cells[r].resize(slots_.size());
    for (size_t c = 0; c < slots_.size(); ++c) {
      cells[r][c] = cols_[c][r].ToValue().ToString();
      // ⊥ renders as 3 UTF-8 bytes but 1 column; compensate.
      size_t render = cells[r][c] == "\xE2\x8A\xA5" ? 1 : cells[r][c].size();
      width[c] = std::max(width[c], render);
    }
    probs[r] = StrFormat("%.4g", probs_[r]);
    pwidth = std::max(pwidth, probs[r].size());
  }
  std::string out;
  for (size_t c = 0; c < slots_.size(); ++c) {
    out += PadRight(slots_[c].label, width[c]) + "  ";
  }
  out += PadRight("p", pwidth) + "\n";
  for (size_t r = 0; r < NumRows(); ++r) {
    for (size_t c = 0; c < slots_.size(); ++c) {
      std::string cell = cells[r][c];
      size_t render = cell == "\xE2\x8A\xA5" ? 1 : cell.size();
      out += cell + std::string(width[c] - render + 2, ' ');
    }
    out += probs[r] + "\n";
  }
  return out;
}

}  // namespace maybms
