// Hash-consed AS-path arena: the flyweight store behind bgp::Route.
//
// Every AS-path the routing engine materialises is an extension of a path
// a neighbor already holds — one ASN prepended to an existing path. The
// arena exploits that structure: paths are nodes of a persistent trie keyed
// by (head ASN, tail path), and a path is identified by the 32-bit id of
// its head node. Consequences the engine is built on:
//
//   * copy and equality are O(1) (hash-consing makes equal contents have
//     equal ids within one arena);
//   * prepend is O(1) amortised (one hash probe, at most one new node);
//   * loop detection and path reads are walks over shared nodes —
//     no per-route allocation anywhere in the propagation loop.
//
// Storage: nodes live in one vector indexed by path id, and an arena is an
// ordinary value. Copying one copies its nodes, moving one moves them, and
// a default-constructed arena allocates nothing. Each RoutingOutcome owns
// its arena (engine.hpp), so no arena is ever shared.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "topology/as_graph.hpp"

namespace spooftrack::bgp {

/// Identifier of an interned AS-path. Valid within the arena that created
/// it (and its copies). Id 0 is the empty path, which has no node.
using PathId = std::uint32_t;

inline constexpr PathId kEmptyPath = 0;

class PathArena {
 public:
  /// Interns [asn] + tail. Returns the existing id when that exact path
  /// was interned before (the hash-consing hit), else creates one node.
  PathId prepend(topology::Asn asn, PathId tail);

  /// Interns a full path given front (head) to back (origin).
  PathId intern(std::span<const topology::Asn> path);

  /// First ASN of the path. Precondition: id != kEmptyPath.
  topology::Asn head(PathId id) const noexcept { return node(id).asn; }
  /// The path without its head. Precondition: id != kEmptyPath.
  PathId tail(PathId id) const noexcept { return node(id).parent; }
  /// Number of ASNs in the path (0 for kEmptyPath). O(1): cached per node.
  std::uint32_t length(PathId id) const noexcept {
    return id == kEmptyPath ? 0u : node(id).length;
  }

  /// True when `asn` appears anywhere in the path (BGP loop detection).
  bool contains(PathId id, topology::Asn asn) const noexcept;

  /// One-bit-per-ASN Bloom signature: a single bit in a 64-bit word,
  /// derived by multiplicative hashing. Callers OR these into query masks
  /// (e.g. "any tier-1 ASN") to prefilter paths without walking them.
  static std::uint64_t bloom_bit(topology::Asn asn) noexcept {
    return 1ULL << (asn * 0x9E3779B97F4A7C15ULL >> 58);
  }

  /// Bloom signature of the whole path: the OR of bloom_bit over its ASNs
  /// (0 for kEmptyPath). Maintained per node, so this is one load.
  std::uint64_t bloom(PathId id) const noexcept {
    return id == kEmptyPath ? 0u : node(id).bloom;
  }

  /// Conservative membership test: false means `asn` is definitely NOT in
  /// the path; true means "possibly" (confirm with contains()). The common
  /// negative case of loop detection in O(1).
  bool maybe_contains(PathId id, topology::Asn asn) const noexcept {
    return (bloom(id) & bloom_bit(asn)) != 0;
  }

  /// Content equality across arenas. Within one arena prefer `a == b`,
  /// which hash-consing makes exact.
  bool equal(PathId a, const PathArena& other, PathId b) const noexcept;

  /// Forward range over the path's ASNs, front (head) to back (origin).
  class View {
   public:
    class iterator {
     public:
      using value_type = topology::Asn;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::forward_iterator_tag;

      iterator() = default;
      iterator(const PathArena* arena, PathId id) : arena_(arena), id_(id) {}
      topology::Asn operator*() const noexcept { return arena_->head(id_); }
      iterator& operator++() noexcept {
        id_ = arena_->tail(id_);
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator copy = *this;
        ++*this;
        return copy;
      }
      friend bool operator==(const iterator& a, const iterator& b) noexcept {
        return a.id_ == b.id_;
      }

     private:
      const PathArena* arena_ = nullptr;
      PathId id_ = kEmptyPath;
    };

    View(const PathArena* arena, PathId id) : arena_(arena), id_(id) {}
    iterator begin() const noexcept { return {arena_, id_}; }
    iterator end() const noexcept { return {arena_, kEmptyPath}; }

   private:
    const PathArena* arena_;
    PathId id_;
  };

  View view(PathId id) const noexcept { return {this, id}; }

  /// Interned nodes (== distinct non-empty paths ever seen).
  std::size_t node_count() const noexcept { return nodes_.size(); }
  /// prepend() calls answered from an existing node (the dedup hit-rate
  /// numerator; node_count() is the miss total).
  std::uint64_t hits() const noexcept { return hits_; }

  /// Re-interns `from`'s path `id` into this arena, memoising old→new ids
  /// in `memo` (sized from's id space, kNoMigration = not yet migrated).
  /// The compaction primitive: migrating only live paths drops garbage
  /// accumulated along a long warm-start chain.
  static constexpr PathId kNoMigration = std::numeric_limits<PathId>::max();
  PathId migrate(const PathArena& from, PathId id, std::vector<PathId>& memo);

 private:
  struct Node {
    topology::Asn asn = 0;
    PathId parent = kEmptyPath;
    std::uint32_t length = 0;
    std::uint64_t bloom = 0;  // OR of bloom_bit over this path's ASNs
  };

  // Id k lives at nodes_[k - 1]; kEmptyPath has no node.
  const Node& node(PathId id) const noexcept { return nodes_[id - 1]; }

  PathId append_node(topology::Asn asn, PathId parent);

  std::vector<Node> nodes_;
  std::uint64_t hits_ = 0;
  std::unordered_map<std::uint64_t, PathId> intern_;
};

}  // namespace spooftrack::bgp
