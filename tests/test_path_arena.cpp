// bgp::PathArena as a value: a default-constructed arena is empty, and a
// copy owns its nodes, so interning into it leaves the original untouched
// while every path both hold reads the same in each.
#include "bgp/path_arena.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "helpers.hpp"

namespace spooftrack::bgp {
namespace {

TEST(PathArena, DefaultConstructedIsEmpty) {
  const PathArena arena;
  EXPECT_EQ(arena.node_count(), 0u);
  EXPECT_EQ(arena.length(kEmptyPath), 0u);
  EXPECT_EQ(arena.hits(), 0u);
  EXPECT_TRUE(test::path_of(arena, kEmptyPath).empty());
}

TEST(PathArena, CopyIsIndependent) {
  const std::vector<std::vector<topology::Asn>> paths = {
      {10, 100, 47065}, {11, 200, 47065}, {1001, 100, 47065}, {47065}};
  PathArena original;
  std::vector<PathId> ids;
  for (const auto& path : paths) ids.push_back(original.intern(path));
  const std::size_t nodes = original.node_count();

  PathArena copy = original;
  // One path extends a shared one; the other shares no node with any.
  const PathId extended = copy.prepend(7, ids[0]);
  const PathId fresh = copy.intern(std::vector<topology::Asn>{5, 6});
  EXPECT_EQ(copy.node_count(), nodes + 3);
  EXPECT_EQ(original.node_count(), nodes);
  EXPECT_EQ(test::path_of(copy, extended),
            (std::vector<topology::Asn>{7, 10, 100, 47065}));
  EXPECT_EQ(copy.length(fresh), 2u);

  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(test::path_of(original, ids[i]), paths[i]) << i;
    EXPECT_EQ(test::path_of(copy, ids[i]), paths[i]) << i;
    EXPECT_TRUE(original.equal(ids[i], copy, ids[i])) << i;
    EXPECT_TRUE(copy.equal(ids[i], original, ids[i])) << i;
  }
  // The copy kept the intern table too: a known path is a hit, no node.
  EXPECT_EQ(copy.intern(paths[1]), ids[1]);
  EXPECT_EQ(copy.node_count(), nodes + 3);
}

}  // namespace
}  // namespace spooftrack::bgp
