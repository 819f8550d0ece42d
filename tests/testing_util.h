// Shared fixtures for the test suite: the paper's running example graph
// (Fig. 1) and small helpers.
#ifndef CSPM_TESTS_TESTING_UTIL_H_
#define CSPM_TESTS_TESTING_UTIL_H_

#include <span>
#include <string>
#include <vector>

#include "graph/attributed_graph.h"
#include "util/check.h"

namespace cspm::testing {

/// Builds the paper's Fig. 1 running example:
///   v1:{a} v2:{a,c} v3:{c} v4:{b} v5:{a,b}
///   edges: v1-v2, v1-v3, v1-v4, v3-v5, v4-v5
/// Vertex ids are zero-based (paper's v1 == id 0).
inline graph::AttributedGraph PaperExampleGraph() {
  graph::GraphBuilder b;
  b.AddVertex({"a"});           // v1 = 0
  b.AddVertex({"a", "c"});      // v2 = 1
  b.AddVertex({"c"});           // v3 = 2
  b.AddVertex({"b"});           // v4 = 3
  b.AddVertex({"a", "b"});      // v5 = 4
  CSPM_CHECK(b.AddEdge(VertexId(0), VertexId(1)).ok());
  CSPM_CHECK(b.AddEdge(VertexId(0), VertexId(2)).ok());
  CSPM_CHECK(b.AddEdge(VertexId(0), VertexId(3)).ok());
  CSPM_CHECK(b.AddEdge(VertexId(2), VertexId(4)).ok());
  CSPM_CHECK(b.AddEdge(VertexId(3), VertexId(4)).ok());
  auto g = std::move(b).Build(/*require_connected=*/true);
  CSPM_CHECK(g.ok());
  return std::move(g).value();
}

/// An owning copy of an a-star's value list: gtest compares and prints
/// vectors, not spans.
inline std::vector<graph::AttrId> Values(std::span<const graph::AttrId> ids) {
  return {ids.begin(), ids.end()};
}

}  // namespace cspm::testing

#endif  // CSPM_TESTS_TESTING_UTIL_H_
