#include "bgp/path_arena.hpp"

#include <stdexcept>

namespace spooftrack::bgp {

namespace {

std::uint64_t intern_key(topology::Asn asn, PathId parent) noexcept {
  return (static_cast<std::uint64_t>(asn) << 32) | parent;
}

}  // namespace

PathId PathArena::append_node(topology::Asn asn, PathId parent) {
  // Ids stop one short of the maximum, which is migrate's kNoMigration.
  if (nodes_.size() + 1 == std::numeric_limits<PathId>::max()) {
    throw std::length_error("PathArena: id space exhausted");
  }
  nodes_.push_back(
      {asn, parent, length(parent) + 1, bloom(parent) | bloom_bit(asn)});
  return static_cast<PathId>(nodes_.size());
}

PathId PathArena::prepend(topology::Asn asn, PathId tail) {
  const auto [it, inserted] = intern_.try_emplace(intern_key(asn, tail), 0);
  if (!inserted) {
    ++hits_;
    return it->second;
  }
  return it->second = append_node(asn, tail);
}

PathId PathArena::intern(std::span<const topology::Asn> path) {
  PathId id = kEmptyPath;
  for (std::size_t i = path.size(); i-- > 0;) {
    id = prepend(path[i], id);
  }
  return id;
}

bool PathArena::contains(PathId id, topology::Asn asn) const noexcept {
  if (!maybe_contains(id, asn)) return false;
  for (; id != kEmptyPath; id = node(id).parent) {
    if (node(id).asn == asn) return true;
  }
  return false;
}

bool PathArena::equal(PathId a, const PathArena& other,
                      PathId b) const noexcept {
  if (this == &other) return a == b;
  if (length(a) != other.length(b)) return false;
  while (a != kEmptyPath) {
    const Node& na = node(a);
    const Node& nb = other.node(b);
    if (na.asn != nb.asn) return false;
    a = na.parent;
    b = nb.parent;
  }
  return true;
}

PathId PathArena::migrate(const PathArena& from, PathId id,
                          std::vector<PathId>& memo) {
  // Walk toward the origin until a migrated suffix (or the root), then
  // unwind, interning and memoising on the way back out.
  std::vector<PathId> chain;
  PathId cursor = id;
  while (cursor != kEmptyPath && memo[cursor] == kNoMigration) {
    chain.push_back(cursor);
    cursor = from.node(cursor).parent;
  }
  PathId mapped = cursor == kEmptyPath ? kEmptyPath : memo[cursor];
  for (std::size_t i = chain.size(); i-- > 0;) {
    mapped = prepend(from.node(chain[i]).asn, mapped);
    memo[chain[i]] = mapped;
  }
  return mapped;
}

}  // namespace spooftrack::bgp
