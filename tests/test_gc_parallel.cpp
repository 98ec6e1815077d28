// core/gc_parallel.hpp: team-based evacuation must preserve the
// object graph exactly -- values, shape, AND sharing (a shared
// subgraph is copied once, not once per referrer) -- independent of
// team size, and its claim protocol must be free (zero conflicts, no
// steals) when the team is one worker, the paper's sequential
// collector. Plus end-to-end parity: the STW runtime's recruited-team
// collections and HierRuntime's join-time collections, alone or with a
// team, keep kernel checksums identical to the sequential runtime.
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common/workloads.hpp"
#include "core/gc_leaf.hpp"
#include "core/gc_parallel.hpp"
#include "core/hier_runtime.hpp"
#include "data/rand.hpp"
#include "runtimes/seq_runtime.hpp"
#include "runtimes/stw_runtime.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace parmem;

// A graph with all the shapes the collector must get right: a chain
// (deep forwarding), random fan-in within a window (sharing), a hub
// object every k-th object points at (heavy sharing -- the claim
// contention hot spot), and interleaved garbage. Returns root slots.
struct BuiltGraph {
  std::unique_ptr<Heap> heap;
  std::vector<Object*> roots;
  Object* hub = nullptr;
};

BuiltGraph build_graph(ChunkPool& pool, std::size_t objects,
                       std::uint64_t seed) {
  BuiltGraph g;
  g.heap = std::make_unique<Heap>(nullptr, 0, &pool);
  std::uint64_t s = seed;
  auto rnd = [&s](std::uint64_t mod) {
    s = data::hash64(s, mod + 1);
    return s % mod;
  };
  g.hub = g.heap->bump_alloc(0, 4);
  for (std::uint32_t k = 0; k < 4; ++k) {
    g.hub->set_scalar(k, static_cast<std::int64_t>(rnd(1u << 20)));
  }
  std::vector<Object*> objs;
  objs.push_back(g.hub);
  for (std::size_t i = 1; i < objects; ++i) {
    const auto np = static_cast<std::uint32_t>(1 + rnd(3));
    const auto nn = static_cast<std::uint32_t>(1 + rnd(6));
    Object* o = g.heap->bump_alloc(np, nn);
    o->zero_fields();
    for (std::uint32_t k = 0; k < nn; ++k) {
      o->set_scalar(k, static_cast<std::int64_t>(rnd(1u << 20)));
    }
    o->set_ptr_relaxed(0, i % 7 == 0 ? g.hub : objs.back());
    for (std::uint32_t k = 1; k < np; ++k) {
      const std::size_t window = objs.size() < 64 ? objs.size() : 64;
      if (rnd(3) != 0) {  // some fields stay null, some objects die
        o->set_ptr_relaxed(k, objs[objs.size() - 1 - rnd(window)]);
      }
    }
    objs.push_back(o);
  }
  for (std::size_t i = 0; i < objs.size(); i += 16) {
    g.roots.push_back(objs[i]);  // ~15/16 of the chain tail is garbage
  }
  g.roots.push_back(objs.back());
  return g;
}

// Deterministic structure+value hash: DFS from the roots assigning
// visit-order ids, folding in each object's layout, scalars, and edge
// TARGET IDS. Ids are per-traversal, so the hash is address-free --
// equal before and after evacuation iff values, shape, and sharing all
// survived (a doubled shared subgraph changes the ids of everything
// after it).
std::uint64_t graph_checksum(const std::vector<Object*>& roots) {
  std::unordered_map<const Object*, std::uint64_t> id;
  std::vector<Object*> stack;
  std::uint64_t h = 0x5eed;
  auto visit = [&](Object* o) {
    if (o != nullptr && id.emplace(o, id.size()).second) {
      stack.push_back(o);
    }
  };
  for (Object* r : roots) {
    visit(r);
  }
  // Visit in LIFO order but fold edges in field order at pop time.
  while (!stack.empty()) {
    Object* o = stack.back();
    stack.pop_back();
    h = data::hash64(h, id[o]);
    h = data::hash64(h, o->meta_word());
    for (std::uint32_t i = 0; i < o->nscalar(); ++i) {
      h = data::hash64(h, static_cast<std::uint64_t>(o->scalar(i)));
    }
    for (std::uint32_t i = 0; i < o->nptr(); ++i) {
      visit(o->ptrs()[i]);
    }
  }
  // Fold the edge structure in a second pass now that every id exists.
  for (auto& [o, oid] : id) {
    std::uint64_t eh = oid;
    for (std::uint32_t i = 0; i < o->nptr(); ++i) {
      const Object* t = const_cast<Object*>(o)->ptrs()[i];
      eh = data::hash64(eh, t != nullptr ? id.at(t) + 1 : 0);
    }
    h ^= data::hash64(eh, 0xed9e);
  }
  return h;
}

core::ParallelGcOutcome collect_graph(BuiltGraph& g, ChunkPool& pool,
                                      unsigned team) {
  core::ParallelCollector pc(pool, g.heap.get(), team);
  return pc.collect([&g](auto&& fn) {
    for (Object*& r : g.roots) {
      fn(&r);
    }
  });
}

// Follow the graph from a root to the hub: every i%7==0 object's
// field 0 is the hub, so roots[7*16 ...] reach it in one hop... rather
// than hardcode, scan reachable objects for 0-pointer/4-scalar ones.
Object* find_hub(const std::vector<Object*>& roots) {
  std::unordered_map<const Object*, bool> seen;
  std::vector<Object*> stack(roots.begin(), roots.end());
  Object* hub = nullptr;
  while (!stack.empty()) {
    Object* o = stack.back();
    stack.pop_back();
    if (o == nullptr || !seen.emplace(o, true).second) {
      continue;
    }
    if (o->nptr() == 0 && o->nscalar() == 4) {
      CHECK(hub == nullptr || hub == o);  // sharing: exactly one copy
      hub = o;
    }
    for (std::uint32_t i = 0; i < o->nptr(); ++i) {
      stack.push_back(o->ptrs()[i]);
    }
  }
  return hub;
}

PARMEM_TEST(parallel_gc_preserves_graph_and_sharing) {
  ChunkPool pool;
  BuiltGraph g = build_graph(pool, 20000, 7);
  const std::uint64_t before = graph_checksum(g.roots);
  const std::size_t allocated = g.heap->allocated_bytes();
  CHECK(find_hub(g.roots) == g.hub);

  core::ParallelGcOutcome out = collect_graph(g, pool, 3);

  CHECK_EQ(graph_checksum(g.roots), before);
  // The hub survives as exactly one copy, shared by every referrer.
  Object* hub_after = find_hub(g.roots);
  CHECK(hub_after != nullptr);
  CHECK(hub_after != g.hub);  // it moved
  // Garbage died: the evacuated bytes are well under the allocation.
  CHECK(out.totals.bytes_copied > 0);
  CHECK(out.totals.bytes_copied < allocated);
}

PARMEM_TEST(parallel_gc_team_sizes_equivalent) {
  std::uint64_t checksum1 = 0;
  core::ParallelGcOutcome out1;
  {
    ChunkPool pool;
    BuiltGraph g = build_graph(pool, 20000, 21);
    out1 = collect_graph(g, pool, 1);
    checksum1 = graph_checksum(g.roots);
  }
  for (unsigned team : {2u, 4u}) {
    ChunkPool pool;
    BuiltGraph g = build_graph(pool, 20000, 21);
    core::ParallelGcOutcome out = collect_graph(g, pool, team);
    // Same live set regardless of who copies it.
    CHECK_EQ(out.totals.objects_copied, out1.totals.objects_copied);
    CHECK_EQ(out.totals.bytes_copied, out1.totals.bytes_copied);
    CHECK_EQ(graph_checksum(g.roots), checksum1);
  }
}

PARMEM_TEST(parallel_gc_single_worker_has_no_conflicts) {
  ChunkPool pool;
  BuiltGraph g = build_graph(pool, 8000, 5);
  core::ParallelGcOutcome out = collect_graph(g, pool, 1);
  CHECK_EQ(out.totals.claim_conflicts, 0u);
  CHECK(out.totals.objects_copied > 0);
  CHECK_EQ(out.totals.packets_stolen, 0u);
  CHECK_EQ(out.totals.cpu_ns, 0u);  // no recruit; the caller bills the driver
}

// A team-of-one collection copies into the collected heap itself, the
// leaf collector's and a stopped one's alike: survivors sit in chunks
// at the heap's own chunk-size step (here the full 256 KiB), never in
// the 4 KiB starters a fresh to-space heap would open, and the step is
// kept for the owner's next allocation.
PARMEM_TEST(stopped_team_of_one_copies_in_place) {
  ChunkPool pool;
  BuiltGraph g = build_graph(pool, 40000, 13);
  CHECK_EQ(g.heap->chunk_size_hint(), kChunkBytes);
  const std::uint64_t before = graph_checksum(g.roots);
  SafepointGate gate(1);
  StatsCell stats;
  auto roots = [&g](auto&& fn) {
    for (Object*& r : g.roots) {
      fn(&r);
    }
  };
  auto check_in_place = [&](std::size_t live) {
    CHECK(live > kMinChunkBytes);
    CHECK_EQ(graph_checksum(g.roots), before);
    CHECK_EQ(g.heap->chunk_size_hint(), kChunkBytes);
    for (Chunk* c = g.heap->chunks(); c != nullptr; c = c->next) {
      CHECK_EQ(c->bytes, kChunkBytes);
    }
  };
  for (unsigned max_team : {0u, 1u, 4u}) {  // nobody parked: all alone
    check_in_place(
        collect_stopped(gate, pool, {g.heap.get()}, max_team, &stats, roots));
  }
  check_in_place(leaf_gc_collect(g.heap.get(), &stats, roots));
  CHECK_EQ(stats.gc_count.load(), 4u);
}

// Stale promotion copies must forward through to their master: a
// "promoted" object's old copy sits in the collected heap with a
// forwarding pointer into a FOREIGN heap; the collector must chase it
// (rewriting roots to the master) and must not claim or copy the
// master itself.
PARMEM_TEST(parallel_gc_collects_promotion_forwarded_heaps) {
  ChunkPool pool;
  Heap parent(nullptr, 0, &pool);
  Heap child(&parent, 1, &pool);

  Object* master = parent.bump_alloc(0, 2);
  master->set_scalar(0, 41);
  master->set_scalar(1, 43);
  Object* stale = child.bump_alloc(0, 2);
  stale->zero_fields();
  stale->set_fwd(master);  // what a finished promotion leaves behind

  Object* keeper = child.bump_alloc(1, 1);
  keeper->set_scalar(0, 7);
  keeper->set_ptr_relaxed(0, stale);

  std::vector<Object*> roots{stale, keeper};
  core::ParallelCollector pc(pool, &child, 2);
  core::ParallelGcOutcome out = pc.collect([&roots](auto&& fn) {
    for (Object*& r : roots) {
      fn(&r);
    }
  });

  CHECK(roots[0] == master);  // stale root snapped to the master
  CHECK(roots[1] != keeper);  // live child object was evacuated
  CHECK_EQ(roots[1]->scalar(0), 7);
  CHECK(roots[1]->ptrs()[0] == master);  // field chased, master untouched
  CHECK_EQ(out.totals.objects_copied, 1u);  // only `keeper`; never the master
  CHECK_EQ(master->scalar(0), 41);
  CHECK_EQ(master->scalar(1), 43);
}

// The STW runtime's collections go through the recruited-team
// evacuator whenever the stop parked a mutator; kernels must come out
// bit-identical to the sequential runtime even under constant
// collection pressure.
PARMEM_TEST(stw_parallel_evacuation_kernel_parity) {
  bench::Sizes z;
  z.scale = 0.001;
  z.msort_pure_n = 4000;
  z.sort_grain = 256;
  z.seq_n = 6000;
  z.seq_grain = 512;
  const std::int64_t ref_sort = [&] {
    SeqRuntime seq;
    return bench_msort_pure(seq, z).checksum;
  }();
  const std::int64_t ref_filter = [&] {
    SeqRuntime seq;
    return bench_filter(seq, z).checksum;
  }();
  StwRuntime::Options o;
  o.workers = 4;
  o.gc_min_budget = std::size_t{96} << 10;
  StwRuntime rt(o);
  for (int i = 0; i < 3; ++i) {
    CHECK_EQ(bench_msort_pure(rt, z).checksum, ref_sort);
    CHECK_EQ(bench_filter(rt, z).checksum, ref_filter);
  }
  CHECK(rt.stats().gc_count > 0);
}

// Hier join-time subtree collections must preserve kernel results,
// whether the driver evacuates alone (gc_parallel_team 0 or 1) or with
// up to two recruits.
PARMEM_TEST(hier_parallel_join_collection_parity) {
  bench::Sizes z;
  z.scale = 0.001;
  z.usp_side = 12;
  z.msort_pure_n = 4000;
  z.sort_grain = 256;
  const std::int64_t ref_usp = [&] {
    SeqRuntime seq;
    return bench_usp_tree(seq, z).checksum;
  }();
  const std::int64_t ref_sort = [&] {
    SeqRuntime seq;
    return bench_msort_pure(seq, z).checksum;
  }();
  for (unsigned team : {0u, 1u, 3u}) {
    HierRuntime::Options o;
    o.workers = 2;
    o.gc_join_threshold = std::size_t{16} << 10;
    o.gc_parallel_team = team;
    HierRuntime rt(o);
    for (int i = 0; i < 2; ++i) {
      CHECK_EQ(bench_usp_tree(rt, z).checksum, ref_usp);
      CHECK_EQ(bench_msort_pure(rt, z).checksum, ref_sort);
    }
    CHECK(rt.stats().gc_count > 0);
  }
}

}  // namespace
