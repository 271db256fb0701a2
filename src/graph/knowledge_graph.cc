#include "graph/knowledge_graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "graph/csr_codec.h"

namespace star::graph {

namespace {

// Thread-local free list of decode scratch buffers for compressed-layout
// NeighborView. Callers routinely hold one view while issuing nested
// Neighbors() calls of unbounded depth (walk balls, pair-edge scoring), so
// a single reusable scratch is not enough; a pool of independently owned
// buffers is, and after warmup every acquire is a pop (allocation-free).
class DecodePool {
 public:
  ~DecodePool() {
    for (std::vector<Neighbor>* buf : free_) delete buf;
  }

  std::vector<Neighbor>* Acquire(size_t n) {
    std::vector<Neighbor>* buf;
    if (free_.empty()) {
      buf = new std::vector<Neighbor>();
    } else {
      buf = free_.back();
      free_.pop_back();
    }
    if (buf->size() < n) buf->resize(n);
    return buf;
  }

  void Release(std::vector<Neighbor>* buf) {
    if (free_.size() >= kMaxPooled) {
      delete buf;
      return;
    }
    free_.push_back(buf);
  }

 private:
  // Bounds per-thread retained scratch; deeper nesting falls back to the
  // allocator. 64 far exceeds any real expansion depth.
  static constexpr size_t kMaxPooled = 64;
  std::vector<std::vector<Neighbor>*> free_;
};

DecodePool& Pool() {
  thread_local DecodePool pool;
  return pool;
}

template <typename T>
size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
size_t VecSlack(const std::vector<T>& v) {
  return (v.capacity() - v.size()) * sizeof(T);
}

// Rough resident estimate for a closed-addressing hash map: bucket heads
// plus one node (hash, next, pair) per element, plus key heap bytes.
template <typename V>
size_t MapBytes(const NameMap<V>& m) {
  size_t bytes = m.bucket_count() * sizeof(void*);
  for (const auto& [key, value] : m) {
    bytes += 4 * sizeof(void*) + sizeof(std::pair<const std::string, V>);
    if (key.capacity() > sizeof(std::string)) bytes += key.capacity() + 1;
  }
  return bytes;
}

}  // namespace

NeighborView::~NeighborView() {
  if (owned_ != nullptr) Pool().Release(owned_);
}

NeighborView& NeighborView::operator=(NeighborView&& o) noexcept {
  if (this != &o) {
    if (owned_ != nullptr) Pool().Release(owned_);
    data_ = o.data_;
    size_ = o.size_;
    owned_ = o.owned_;
    o.owned_ = nullptr;
  }
  return *this;
}

void KnowledgeGraph::Builder::Reserve(size_t nodes, size_t edges) {
  labels_.reserve(nodes);
  types_.reserve(nodes);
  srcs_.reserve(edges);
  dsts_.reserve(edges);
  relations_.reserve(edges);
}

NodeId KnowledgeGraph::Builder::AddNode(std::string label,
                                        std::string type_name) {
  const NodeId id = static_cast<NodeId>(labels_.size());
  labels_.push_back(std::move(label));
  if (type_name.empty()) {
    types_.push_back(-1);
  } else {
    auto [it, inserted] = type_index_.try_emplace(
        type_name, static_cast<int32_t>(type_names_.size()));
    if (inserted) type_names_.push_back(std::move(type_name));
    types_.push_back(it->second);
  }
  return id;
}

EdgeId KnowledgeGraph::Builder::AddEdge(NodeId src, NodeId dst,
                                        std::string relation) {
  assert(src < labels_.size() && dst < labels_.size());
  const EdgeId id = static_cast<EdgeId>(srcs_.size());
  srcs_.push_back(src);
  dsts_.push_back(dst);
  auto [it, inserted] = relation_index_.try_emplace(
      relation, static_cast<uint32_t>(relation_names_.size()));
  if (inserted) relation_names_.push_back(std::move(relation));
  relations_.push_back(it->second);
  return id;
}

KnowledgeGraph KnowledgeGraph::Builder::Build(GraphLayout layout) && {
  KnowledgeGraph g;
  g.layout_ = layout;
  g.types_ = std::move(types_);
  g.relation_names_ = std::move(relation_names_);
  g.type_index_ = std::move(type_index_);
  g.relation_index_ = std::move(relation_index_);
  g.edge_src_ = std::move(srcs_);
  g.edge_dst_ = std::move(dsts_);
  g.edge_rel_ = std::move(relations_);

  const size_t n = labels_.size();
  const size_t m = g.edge_src_.size();

  // Intern labels (deduplicated) and type names into one pool. The pool is
  // reserved to the worst case up front so string_view keys into it stay
  // stable during interning, then shrunk once at the end.
  {
    size_t upper = 0;
    for (const std::string& s : labels_) upper += s.size();
    for (const std::string& s : type_names_) upper += s.size();
    g.pool_.reserve(upper);

    std::unordered_map<std::string_view, StrRef, TransparentStringHash,
                       std::equal_to<>>
        intern;
    intern.reserve(n);
    g.label_refs_.resize(n);
    for (size_t v = 0; v < n; ++v) {
      const std::string& label = labels_[v];
      auto it = intern.find(std::string_view(label));
      if (it == intern.end()) {
        const StrRef ref{static_cast<uint32_t>(g.pool_.size()),
                         static_cast<uint32_t>(label.size())};
        g.pool_.append(label);
        it = intern.emplace(g.View(ref), ref).first;
      }
      g.label_refs_[v] = it->second;
    }
    g.type_refs_.resize(type_names_.size());
    for (size_t t = 0; t < type_names_.size(); ++t) {
      g.type_refs_[t] = {static_cast<uint32_t>(g.pool_.size()),
                         static_cast<uint32_t>(type_names_[t].size())};
      g.pool_.append(type_names_[t]);
    }
  }
  // Builder strings are no longer needed; free them before the CSR arrays
  // are built so peak memory is the larger of the two, not the sum.
  labels_ = {};
  type_names_ = {};

  // Counting sort into CSR over the undirected view: every directed edge
  // contributes one entry at each endpoint.
  assert(2 * m <= std::numeric_limits<uint32_t>::max());
  g.offsets_.assign(n + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    ++g.offsets_[g.edge_src_[e] + 1];
    ++g.offsets_[g.edge_dst_[e] + 1];
  }
  for (size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adjacency_.resize(2 * m);
  {
    std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (size_t e = 0; e < m; ++e) {
      const NodeId s = g.edge_src_[e];
      const NodeId d = g.edge_dst_[e];
      const uint32_t r = g.edge_rel_[e];
      g.adjacency_[cursor[s]++] = Neighbor{d, r, true};
      g.adjacency_[cursor[d]++] = Neighbor{s, r, false};
    }
  }
  // Canonical adjacency order — applied in BOTH layouts so they are
  // indistinguishable to every engine, and a prerequisite for the delta
  // codec (node ids must be non-decreasing within a list).
  g.max_degree_ = 0;
  for (size_t v = 0; v < n; ++v) {
    Neighbor* first = g.adjacency_.data() + g.offsets_[v];
    Neighbor* last = g.adjacency_.data() + g.offsets_[v + 1];
    std::sort(first, last, [](const Neighbor& a, const Neighbor& b) {
      if (a.node != b.node) return a.node < b.node;
      if (a.relation != b.relation) return a.relation < b.relation;
      return a.forward < b.forward;
    });
    g.max_degree_ = std::max(
        g.max_degree_, static_cast<size_t>(g.offsets_[v + 1] - g.offsets_[v]));
  }

  if (layout == GraphLayout::kCompressed) {
    g.byte_offsets_.resize(n + 1);
    g.adjacency_bytes_.reserve(g.adjacency_.size() * 2);  // typical density
    for (size_t v = 0; v < n; ++v) {
      g.byte_offsets_[v] = static_cast<uint32_t>(g.adjacency_bytes_.size());
      csr::EncodeAdjacency(g.adjacency_.data() + g.offsets_[v],
                           g.offsets_[v + 1] - g.offsets_[v],
                           &g.adjacency_bytes_);
    }
    assert(g.adjacency_bytes_.size() <= std::numeric_limits<uint32_t>::max());
    g.byte_offsets_[n] = static_cast<uint32_t>(g.adjacency_bytes_.size());
    g.adjacency_ = {};
    g.adjacency_bytes_.shrink_to_fit();
  }

  g.pool_.shrink_to_fit();
  g.label_refs_.shrink_to_fit();
  g.type_refs_.shrink_to_fit();
  g.types_.shrink_to_fit();
  g.relation_names_.shrink_to_fit();
  g.edge_src_.shrink_to_fit();
  g.edge_dst_.shrink_to_fit();
  g.edge_rel_.shrink_to_fit();
  g.offsets_.shrink_to_fit();
  g.adjacency_.shrink_to_fit();
  g.byte_offsets_.shrink_to_fit();
  return g;
}

NeighborView KnowledgeGraph::DecodeNeighbors(NodeId v) const {
  const size_t count = offsets_[v + 1] - offsets_[v];
  if (count == 0) return {static_cast<const Neighbor*>(nullptr), 0};
  std::vector<Neighbor>* buf = Pool().Acquire(count);
  csr::DecodeAdjacency(adjacency_bytes_.data() + byte_offsets_[v], count,
                       buf->data());
  return {buf, count};
}

std::string_view KnowledgeGraph::TypeName(int32_t type) const {
  if (type < 0 || static_cast<size_t>(type) >= type_refs_.size()) return {};
  return View(type_refs_[type]);
}

int32_t KnowledgeGraph::FindTypeId(std::string_view name) const {
  const auto it = type_index_.find(name);
  return it == type_index_.end() ? -1 : it->second;
}

int64_t KnowledgeGraph::FindRelationId(std::string_view name) const {
  const auto it = relation_index_.find(name);
  return it == relation_index_.end() ? -1 : static_cast<int64_t>(it->second);
}

bool KnowledgeGraph::HasEdge(NodeId u, NodeId v) const {
  // Scan the smaller adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const NeighborView nbrs = Neighbors(u);
  for (const Neighbor& nb : nbrs) {
    if (nb.node == v) return true;
  }
  return false;
}

GraphFootprint KnowledgeGraph::Footprint() const {
  GraphFootprint f;
  f.csr_bytes = VecBytes(offsets_) + VecBytes(adjacency_) +
                VecBytes(adjacency_bytes_) + VecBytes(byte_offsets_);
  f.label_bytes = pool_.capacity() + VecBytes(label_refs_) +
                  VecBytes(type_refs_) + VecBytes(types_);
  f.edge_bytes = VecBytes(edge_src_) + VecBytes(edge_dst_) +
                 VecBytes(edge_rel_);
  f.dict_bytes = VecBytes(relation_names_) + MapBytes(type_index_) +
                 MapBytes(relation_index_);
  for (const std::string& s : relation_names_) {
    if (s.capacity() > sizeof(std::string)) f.dict_bytes += s.capacity() + 1;
  }
  f.capacity_slack = VecSlack(offsets_) + VecSlack(adjacency_) +
                     VecSlack(adjacency_bytes_) + VecSlack(byte_offsets_) +
                     (pool_.capacity() - pool_.size()) +
                     VecSlack(label_refs_) + VecSlack(type_refs_) +
                     VecSlack(types_) + VecSlack(edge_src_) +
                     VecSlack(edge_dst_) + VecSlack(edge_rel_);
  return f;
}

KnowledgeGraph CloneWithLayout(const KnowledgeGraph& g, GraphLayout layout) {
  KnowledgeGraph::Builder b;
  b.Reserve(g.node_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    b.AddNode(std::string(g.NodeLabel(v)),
              std::string(g.TypeName(g.NodeType(v))));
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    b.AddEdge(g.EdgeSrc(e), g.EdgeDst(e), g.RelationName(g.EdgeRelation(e)));
  }
  return std::move(b).Build(layout);
}

}  // namespace star::graph
