#include "oracle.hpp"

#include <algorithm>

namespace perfbench {

void PostHistory::append(PostVersion version) {
  const std::lock_guard lock(mutex_);
  versions_.push_back(std::move(version));
}

void PostHistory::finish_last(std::int64_t write_end_ns) {
  const std::lock_guard lock(mutex_);
  versions_.back().write_end_ns = write_end_ns;
}

void PostHistory::retract_last() {
  const std::lock_guard lock(mutex_);
  versions_.pop_back();
}

std::vector<PostVersion> PostHistory::acceptable(std::int64_t start_ns,
                                                 std::int64_t end_ns) const {
  const std::lock_guard lock(mutex_);
  std::size_t first = 0;
  std::size_t last = 0;
  for (std::size_t i = 0; i < versions_.size(); ++i) {
    if (versions_[i].write_end_ns <= start_ns) first = i;
    if (versions_[i].write_start_ns < end_ns) last = i;
  }
  return {versions_.begin() + static_cast<std::ptrdiff_t>(first),
          versions_.begin() + static_cast<std::ptrdiff_t>(std::max(first, last) + 1)};
}

bool PostHistory::revoked_now() const {
  const std::lock_guard lock(mutex_);
  return !versions_.empty() && versions_.back().revoked;
}

Judgement judge_access(const AccessExpectation& expect, std::span<const PostVersion> acceptable,
                       const sp::core::AccessResult* result, bool threw) {
  if (threw || result == nullptr) return {Verdict::kFailed, "access threw"};
  const bool any_live = std::any_of(acceptable.begin(), acceptable.end(),
                                    [](const PostVersion& v) { return !v.revoked; });
  const bool any_revoked = std::any_of(acceptable.begin(), acceptable.end(),
                                       [](const PostVersion& v) { return v.revoked; });
  const bool knows = expect.known >= expect.threshold;

  if (result->object) {
    if (!knows) return {Verdict::kViolation, "granted with m < k"};
    if (!any_live) return {Verdict::kViolation, "served a revoked post"};
    const bool matches = std::any_of(
        acceptable.begin(), acceptable.end(),
        [&](const PostVersion& v) { return !v.revoked && v.object == *result->object; });
    if (!matches) return {Verdict::kViolation, "granted bytes differ from the shared bytes"};
    return {};
  }
  if (result->granted) {
    // SP Verify granted but no object came back: only a revoked post (its
    // blob pulled from the DH) may end like this.
    if (!knows) return {Verdict::kViolation, "SP granted with m < k"};
    if (result->error == sp::net::ServeError::kDhMiss && any_revoked) return {};
    return {Verdict::kFailed,
            std::string("granted without object: ") +
                (result->error ? sp::net::to_string(*result->error) : "no error")};
  }
  if (result->error) return {Verdict::kFailed, std::string("error: ") + sp::net::to_string(*result->error)};
  // Clean denial.
  if (!knows) return {};
  // Construction 1 shows a random r-subset (k <= r <= N) of the questions, so
  // a receiver knowing fewer than N answers can draw challenges that miss
  // them on every retry; that is the protocol, not a fault.
  if (expect.c1 && expect.known < expect.questions) return {};
  return {Verdict::kFailed, "denied with m >= k"};
}

}  // namespace perfbench
