// Robustness pins for hostile input: byte-mutated query text, mutated
// graph files in both adjacency layouts, an absurd k and an oversized
// query. Every case must come back as a Status (ok or an error with a
// message) without crashing or over-allocating; the asan ctest label runs
// these under ASan+LSan.

#include <sys/resource.h>

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/graph_io.h"
#include "graph/label_index.h"
#include "query/query_parser.h"
#include "serve/query_service.h"
#include "test_helpers.h"
#include "text/ensemble.h"

namespace star {
namespace {

// Peak resident set of this process in KiB. ctest runs every test in its
// own process, so the growth across one test bounds what it allocated.
long PeakRssKib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

constexpr long kMaxGrowthKib = 256 * 1024;

// Bytes the mutator splices in: the grammar's own punctuation (so mutants
// reach deep parser states), digits, whitespace, and raw high bytes.
constexpr char kSpliceBytes[] = "()[]-;?/ \t\n_#N E0123456789\x00\xff\x80";

std::string Mutate(std::string s, Rng& rng) {
  const int edits = static_cast<int>(rng.Uniform(1, 4));
  for (int i = 0; i < edits; ++i) {
    const size_t pos = s.empty() ? 0 : rng.Below(s.size() + 1);
    const char byte =
        kSpliceBytes[rng.Below(sizeof(kSpliceBytes) - 1)];
    switch (rng.Below(6)) {
      case 0:  // overwrite
        if (pos < s.size()) s[pos] = byte;
        break;
      case 1:  // insert
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos), byte);
        break;
      case 2:  // delete a short run
        if (pos < s.size()) s.erase(pos, 1 + rng.Below(4));
        break;
      case 3:  // truncate
        s.resize(pos);
        break;
      case 4: {  // duplicate a chunk in place
        if (pos < s.size()) {
          const std::string chunk = s.substr(pos, 1 + rng.Below(16));
          s.insert(pos, chunk);
        }
        break;
      }
      default:  // splice in a huge or negative number
        s.insert(pos, rng.Chance(0.5) ? "99999999999999999999" : "-1");
        break;
    }
  }
  return s;
}

TEST(HostileInputTest, MutatedQueryStringsReturnAStatus) {
  const std::vector<std::string> seeds = {
      "(Brad Pitt)",
      "(Brad Pitt/Actor) -[actedIn]- (?m/Film)",
      "(?) -- (?x/Film); (?x) -- (?)",
      "(Brad) -- (?m/Film); (?m/Film) -[won]- (Award)",
      "(?director/Director) -[directed]- (Boyhood) -- (Academy Award)",
  };
  const long rss_before = PeakRssKib();
  Rng rng(0xC0FFEE);
  size_t parsed = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string text =
        Mutate(seeds[rng.Below(seeds.size())], rng);
    const auto r = query::ParseQuery(text);
    if (r.ok()) {
      ++parsed;
      // A parsed graph is internally consistent: every edge endpoint is
      // a node.
      for (int e = 0; e < r->edge_count(); ++e) {
        ASSERT_GE(r->edge(e).u, 0) << text;
        ASSERT_LT(r->edge(e).u, r->node_count()) << text;
        ASSERT_GE(r->edge(e).v, 0) << text;
        ASSERT_LT(r->edge(e).v, r->node_count()) << text;
      }
    } else {
      EXPECT_FALSE(r.status().message().empty()) << text;
    }
  }
  // The mutator must exercise both outcomes to mean anything.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 4000u);
  EXPECT_LT(PeakRssKib() - rss_before, kMaxGrowthKib);
}

TEST(HostileInputTest, MutatedGraphFilesReturnAStatusInBothLayouts) {
  std::ostringstream saved;
  ASSERT_TRUE(graph::SaveGraph(star::testing::SmallRandomGraph(7), saved).ok());
  const std::string seed = saved.str();
  const long rss_before = PeakRssKib();
  Rng rng(0xBADF11E);
  size_t loaded = 0;
  constexpr int kMutants = 2000;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = Mutate(seed, rng);
    for (const graph::GraphLayout layout :
         {graph::GraphLayout::kFlat, graph::GraphLayout::kCompressed}) {
      std::istringstream in(text);
      const auto r = graph::LoadGraph(in, layout);
      if (!r.ok()) {
        EXPECT_FALSE(r.status().message().empty());
        continue;
      }
      ++loaded;
      // Walk every adjacency list and build an index: a loaded graph must
      // be structurally sound in either layout.
      const graph::KnowledgeGraph& g = *r;
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        for (const graph::Neighbor& nb : g.Neighbors(v)) {
          ASSERT_LT(nb.node, g.node_count());
        }
      }
      const graph::LabelIndex index(g);
      (void)index;
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_LT(loaded, 2u * kMutants);
  EXPECT_LT(PeakRssKib() - rss_before, kMaxGrowthKib);
}

TEST(HostileInputTest, AbsurdKReturnsTheCompleteAnswer) {
  const graph::KnowledgeGraph g = star::testing::MovieGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  serve::ServiceOptions so;
  so.star.match = star::testing::TestConfig(2);
  serve::QueryService service(g, ensemble, &index, so);

  query::QueryGraph star_query;
  {
    const int brad = star_query.AddNode("Brad");
    star_query.AddEdge(brad, star_query.AddWildcardNode("Film"));
    star_query.AddEdge(brad, star_query.AddNode("Los Angeles"));
  }
  // A 4-node path is no star: it runs through decomposition and the
  // rank join.
  query::QueryGraph path_query;
  {
    const int brad = path_query.AddNode("Brad");
    const int film = path_query.AddWildcardNode("Film");
    path_query.AddEdge(path_query.AddNode("Los Angeles"), brad);
    path_query.AddEdge(brad, film);
    path_query.AddEdge(film, path_query.AddNode("Award"));
  }
  ASSERT_TRUE(star_query.IsStar());
  ASSERT_FALSE(path_query.IsStar());
  const long rss_before = PeakRssKib();
  for (const query::QueryGraph* q : {&star_query, &path_query}) {
    serve::QueryRequest modest;
    modest.query = *q;
    modest.k = 1000;  // far above the number of matches in this graph
    modest.use_cache = false;
    const serve::QueryResponse ref = service.Execute(std::move(modest));
    ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
    ASSERT_FALSE(ref.matches.empty());
    ASSERT_LT(ref.matches.size(), 1000u);

    serve::QueryRequest absurd;
    absurd.query = *q;
    absurd.k = size_t{1} << 61;
    absurd.use_cache = false;
    const serve::QueryResponse resp = service.Execute(std::move(absurd));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_EQ(resp.matches.size(), ref.matches.size());
    for (size_t i = 0; i < resp.matches.size(); ++i) {
      EXPECT_EQ(resp.matches[i].mapping, ref.matches[i].mapping) << i;
      EXPECT_EQ(resp.matches[i].score, ref.matches[i].score) << i;
    }
  }
  EXPECT_LT(PeakRssKib() - rss_before, kMaxGrowthKib);
}

TEST(HostileInputTest, OversizedQueryIsRejectedWithAStatus) {
  const graph::KnowledgeGraph g = star::testing::MovieGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  serve::QueryService service(g, ensemble, &index, serve::ServiceOptions{});

  // 65 nodes: one past the rank join's 64-bit coverage mask.
  serve::QueryRequest req;
  const int hub = req.query.AddNode("Brad");
  for (int i = 0; i < 64; ++i) {
    req.query.AddEdge(hub, req.query.AddWildcardNode());
  }
  const serve::QueryResponse resp = service.Execute(std::move(req));
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(resp.status.message().empty());
  EXPECT_TRUE(resp.matches.empty());
}

}  // namespace
}  // namespace star
