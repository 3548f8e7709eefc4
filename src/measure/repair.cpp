#include "measure/repair.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>

#include "obs/obs.hpp"
#include "util/flat_map.hpp"

namespace spooftrack::measure {

namespace {

// Maximum gap width considered by the substitution steps.
constexpr std::size_t kWindow = PathRepair::kSubstitutionWindow;

std::uint64_t pack(std::uint64_t a, std::uint64_t b) noexcept {
  return (a << 32) | (b & 0xFFFFFFFFULL);
}

/// The interior first seen between an anchor pair: `len` elements from
/// `first`, which points into the batch's own traces (step 2) or into the
/// collapsed feed pool (step 4). `first` is null while the pair is wanted
/// but not yet seen; `conflict` is set once a different interior turns up.
template <typename T>
struct Interior {
  const T* first = nullptr;
  std::uint32_t len = 0;
  bool conflict = false;
};

template <typename T>
using SeqIndex = util::FlatMap<std::uint64_t, Interior<T>>;

/// Records the interior [first, first + len) of an anchor pair.
template <typename T, typename Eq>
void record(Interior<T>& seen, const T* first, std::size_t len, Eq eq) {
  if (seen.first == nullptr) {
    seen = {first, static_cast<std::uint32_t>(len), false};
    return;
  }
  if (seen.conflict) return;
  if (seen.len != len || !std::equal(first, first + len, seen.first, eq)) {
    seen.conflict = true;
  }
}

/// The unique interior recorded for `key`, nullptr when there is none.
template <typename T>
const Interior<T>* unique_interior(const SeqIndex<T>& index,
                                   std::uint64_t key) noexcept {
  const Interior<T>* seen = index.find(key);
  if (seen == nullptr || seen->first == nullptr || seen->conflict) {
    return nullptr;
  }
  return seen;
}

/// A 4096-bit Bloom-style set with one hash. Pass 2 of the step-2 index
/// keeps one over the wanted pairs' left anchors and one over the pairs
/// themselves, and probes the index only for pairs that pass both.
class KeyFilter {
 public:
  void clear() noexcept { words_.fill(0); }
  void add(std::uint64_t key) noexcept {
    const std::uint32_t b = bit(key);
    words_[b >> 6] |= std::uint64_t{1} << (b & 63);
  }
  bool may_contain(std::uint64_t key) const noexcept {
    const std::uint32_t b = bit(key);
    return (words_[b >> 6] >> (b & 63)) & 1;
  }

 private:
  static constexpr int kBits = 12;
  static std::uint32_t bit(std::uint64_t key) noexcept {
    return static_cast<std::uint32_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                      (64 - kBits));
  }
  std::array<std::uint64_t, (1u << kBits) / 64> words_{};
};

bool same_address(const TracerouteHop& a, const TracerouteHop& b) noexcept {
  return a.address == b.address;
}

/// A hop address's step-1 class: its ASN, or one of two markers above
/// every ASN.
using HopClass = std::uint64_t;
constexpr HopClass kUnmapped = HopClass{1} << 32;
constexpr HopClass kIxp = kUnmapped + 1;

HopClass classify(const IxpTable& ixps, const Ip2AsMap& ip2as,
                  netcore::Ipv4Addr addr) {
  if (ixps.is_ixp_address(addr)) return kIxp;
  const auto asn = ip2as.lookup(addr);
  return asn ? HopClass{*asn} : kUnmapped;
}

std::uint64_t next_serial() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

/// All repair intermediates. The indexes are cleared per batch; every
/// table and buffer keeps its capacity across batches.
struct PathRepair::Scratch::Impl {
  SeqIndex<TracerouteHop> address_index;  // step 2, wanted pairs only
  KeyFilter wanted_lefts;                 // left anchors of wanted pairs
  KeyFilter wanted_pairs;
  SeqIndex<topology::Asn> feed_index;     // step 4, into feed_pool
  std::vector<topology::Asn> feed_pool;   // collapsed feed paths
  std::vector<std::uint32_t> feed_ends;   // feed_pool end of each feed

  // Step-1 memo. Hop classes are pure functions of the repairer's IXP
  // table and ip2as map, and batches hit the same router addresses over
  // and over, so unlike the indexes the memo survives across batches for
  // as long as it serves the repairer whose serial it holds.
  std::uint64_t memo_serial = 0;  // serials start at 1
  util::FlatMap<std::uint32_t, HopClass> hop_memo;
};

PathRepair::Scratch::Scratch() : impl_(std::make_unique<Impl>()) {}
PathRepair::Scratch::~Scratch() = default;
PathRepair::Scratch::Scratch(Scratch&&) noexcept = default;
PathRepair::Scratch& PathRepair::Scratch::operator=(Scratch&&) noexcept =
    default;

namespace {

using ScratchImpl = PathRepair::Scratch::Impl;

/// Step-2 index, built on demand. Pass 1 collects the anchors of every gap
/// step 2 may substitute: a maximal unresponsive run [i, j) with a
/// responsive hop on each side, at most kWindow wide. Pass 2 records the
/// responsive interiors between wanted pairs only, in the order indexing
/// every pair would record them, so each lookup sees the same interiors
/// and conflicts.
void build_address_index(std::span<const Traceroute> traces, ScratchImpl& s) {
  SeqIndex<TracerouteHop>& index = s.address_index;
  index.clear();
  s.wanted_lefts.clear();
  s.wanted_pairs.clear();
  for (const Traceroute& trace : traces) {
    const auto& hops = trace.hops;
    std::size_t i = 0;
    while (i < hops.size()) {
      if (hops[i].responsive()) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < hops.size() && !hops[j].responsive()) ++j;
      if (i > 0 && j < hops.size() && j - i <= kWindow) {
        const std::uint32_t left = hops[i - 1].address->value();
        const std::uint64_t key = pack(left, hops[j].address->value());
        index.try_emplace(key, {});
        s.wanted_lefts.add(left);
        s.wanted_pairs.add(key);
      }
      i = j;
    }
  }
  if (index.size() == 0) return;

  for (const Traceroute& trace : traces) {
    const auto& hops = trace.hops;
    std::size_t i = 0;
    while (i < hops.size()) {
      if (!hops[i].responsive()) {
        ++i;
        continue;
      }
      // Maximal responsive run [i, end).
      std::size_t end = i;
      while (end < hops.size() && hops[end].responsive()) ++end;
      for (std::size_t a = i; a < end; ++a) {
        const std::uint32_t left = hops[a].address->value();
        if (!s.wanted_lefts.may_contain(left)) continue;
        for (std::size_t b = a + 1; b < end && b - a <= kWindow + 1; ++b) {
          const std::uint64_t key = pack(left, hops[b].address->value());
          if (!s.wanted_pairs.may_contain(key)) continue;
          if (Interior<TracerouteHop>* seen = index.find(key)) {
            record(*seen, &hops[a + 1], b - a - 1, same_address);
          }
        }
      }
      i = end;
    }
  }
}

/// Step-4 index: unique AS sequences between AS pairs in feed paths. The
/// pool of collapsed paths is complete before indexing starts, so the
/// recorded interiors point into storage that no longer moves.
void build_feed_index(std::span<const FeedEntry> feeds,
                      topology::Asn origin_asn, ScratchImpl& s) {
  s.feed_index.clear();
  s.feed_pool.clear();
  s.feed_ends.clear();
  for (const FeedEntry& feed : feeds) {
    // Collapse prepending before indexing.
    const std::size_t begin = s.feed_pool.size();
    for (topology::Asn asn : feed.as_path) {
      if (s.feed_pool.size() == begin || s.feed_pool.back() != asn) {
        s.feed_pool.push_back(asn);
      }
    }
    s.feed_ends.push_back(static_cast<std::uint32_t>(s.feed_pool.size()));
  }
  std::size_t begin = 0;
  for (const std::uint32_t end : s.feed_ends) {
    const std::span<const topology::Asn> path(s.feed_pool.data() + begin,
                                              end - begin);
    for (std::size_t i = 0; i < path.size(); ++i) {
      for (std::size_t j = i + 1; j < path.size() && j - i <= kWindow + 1;
           ++j) {
        // Interiors crossing the origin (poison sandwiches) are artifacts
        // of the announcement encoding, not real topology.
        if (j - i >= 2 && path[j - 1] == origin_asn) break;
        Interior<topology::Asn>& seen =
            *s.feed_index.try_emplace(pack(path[i], path[j]), {}).first;
        record(seen, &path[i + 1], j - i - 1, std::equal_to<>{});
      }
    }
    begin = end;
  }
}

/// Gaps bridged so far in a batch, by step.
struct Bridged {
  std::size_t substitutions = 0;  // step 2
  std::size_t feed_bridges = 0;   // step 4
};

/// Repairs one trace into `result`, rewriting it in place. Steps 1 and 2
/// run hop by hop; steps 3 to 5 run as each hop's class arrives, so no
/// per-trace buffer is needed.
template <typename Classify>
void repair_one(const Traceroute& trace, topology::Asn probe_asn,
                topology::Asn origin_asn,
                const SeqIndex<TracerouteHop>& address_index,
                const SeqIndex<topology::Asn>& feed_index,
                const Classify& classify_hop, AsLevelPath& result,
                Bridged& bridged) {
  result.probe = trace.probe;
  std::vector<topology::Asn>& path = result.path;
  path.clear();
  path.push_back(probe_asn);  // step 5 anchors the path at the probe AS
  auto append = [&](topology::Asn asn) {
    if (path.back() != asn) path.push_back(asn);  // step 5 collapse
  };

  // Steps 3 and 4 over the stream of mapped hops: an unknown run between
  // two known ASes is internal to one AS when the sides agree, is bridged
  // by the unique feed interior between them when one exists, and is
  // dropped otherwise (step 5).
  bool any_known = false;  // a hop mapped to an AS: the run has a left side
  std::size_t unknown = 0;  // unresponsive or unmapped hops since then
  auto on_address = [&](netcore::Ipv4Addr addr) {
    const HopClass hop_class = classify_hop(addr);
    if (hop_class == kIxp) return;  // IXP hops belong to the fabric
    if (hop_class == kUnmapped) {
      ++unknown;
      return;
    }
    const auto asn = static_cast<topology::Asn>(hop_class);
    if (unknown > 0 && any_known && path.back() != asn && unknown <= kWindow) {
      if (const auto* seen =
              unique_interior(feed_index, pack(path.back(), asn))) {
        for (std::uint32_t k = 0; k < seen->len; ++k) append(seen->first[k]);
        ++bridged.feed_bridges;
      }
    }
    unknown = 0;
    any_known = true;
    append(asn);
  };

  // Steps 1 and 2: map each hop; an unresponsive run with responsive
  // anchors takes the batch's unique interior between them when one exists.
  const auto& hops = trace.hops;
  std::size_t i = 0;
  while (i < hops.size()) {
    if (hops[i].responsive()) {
      on_address(*hops[i].address);
      ++i;
      continue;
    }
    // Maximal unresponsive run [i, j).
    std::size_t j = i;
    while (j < hops.size() && !hops[j].responsive()) ++j;
    const Interior<TracerouteHop>* seen = nullptr;
    if (i > 0 && j < hops.size() && j - i <= kWindow) {
      seen = unique_interior(address_index,
                             pack(hops[i - 1].address->value(),
                                  hops[j].address->value()));
    }
    if (seen != nullptr) {
      for (std::uint32_t k = 0; k < seen->len; ++k) {
        on_address(*seen->first[k].address);
      }
      ++bridged.substitutions;
    } else {
      unknown += j - i;
    }
    i = j;
  }
  result.complete = path.back() == origin_asn;
}

}  // namespace

PathRepair::PathRepair(const topology::AsGraph& graph, const Ip2AsMap& ip2as,
                       const IxpTable& ixps, topology::Asn origin_asn)
    : graph_(graph),
      ip2as_(ip2as),
      ixps_(ixps),
      origin_asn_(origin_asn),
      serial_(next_serial()) {}

void PathRepair::repair(std::span<const Traceroute> traces,
                        std::span<const FeedEntry> feeds, Scratch& scratch,
                        std::vector<AsLevelPath>& out) const {
  OBS_TIMER("measure.repair.batch_ns");
  OBS_COUNT("measure.repair.traces", traces.size());
  Scratch::Impl& s = *scratch.impl_;
  build_address_index(traces, s);
  build_feed_index(feeds, origin_asn_, s);
  if (s.memo_serial != serial_) {
    s.hop_memo.clear();
    s.memo_serial = serial_;
  }
  auto memoized = [&](netcore::Ipv4Addr addr) {
    const auto [hop_class, inserted] =
        s.hop_memo.try_emplace(addr.value(), kUnmapped);
    if (inserted) *hop_class = classify(ixps_, ip2as_, addr);
    return *hop_class;
  };

  out.resize(traces.size());
  Bridged bridged;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    repair_one(traces[t], graph_.asn_of(traces[t].probe), origin_asn_,
               s.address_index, s.feed_index, memoized, out[t], bridged);
  }
  OBS_COUNT("measure.repair.substitutions", bridged.substitutions);
  OBS_COUNT("measure.repair.feed_bridges", bridged.feed_bridges);
}

}  // namespace spooftrack::measure
