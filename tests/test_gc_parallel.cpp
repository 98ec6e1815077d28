// core/gc_parallel.hpp: team-based evacuation must preserve the
// object graph exactly -- values, shape, AND sharing (a shared
// subgraph is copied once, not once per referrer) -- independent of
// team size, and its claim protocol must be free (zero conflicts)
// when the team is one worker. Plus end-to-end parity: the STW
// runtime's recruited-team collections and HierRuntime's parallel
// join-time collections keep kernel checksums identical to the
// sequential runtime.
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bench_common/workloads.hpp"
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
  HeapRecord* heap = nullptr;
  std::vector<Object*> roots;
  Object* hub = nullptr;
};

BuiltGraph build_graph(HeapArena& arena, std::size_t objects,
                       std::uint64_t seed) {
  BuiltGraph g;
  g.heap = arena.create(nullptr, 0);
  std::uint64_t s = seed;
  auto rnd = [&s](std::uint64_t mod) {
    s = data::hash64(s, mod + 1);
    return s % mod;
  };
  g.hub = init_object(g.heap->allocate_raw(object_bytes(0, 4)), 0, 4);
  for (std::uint32_t k = 0; k < 4; ++k) {
    g.hub->store_i64_plain(k, static_cast<std::int64_t>(rnd(1u << 20)));
  }
  std::vector<Object*> objs;
  objs.push_back(g.hub);
  for (std::size_t i = 1; i < objects; ++i) {
    const auto np = static_cast<std::uint32_t>(1 + rnd(3));
    const auto nn = static_cast<std::uint32_t>(1 + rnd(6));
    Object* o = init_object(g.heap->allocate_raw(object_bytes(np, nn)),
                            np, nn);
    for (std::uint32_t k = 0; k < nn; ++k) {
      o->store_i64_plain(k, static_cast<std::int64_t>(rnd(1u << 20)));
    }
    o->store_ptr_plain(0, i % 7 == 0 ? g.hub : objs.back());
    for (std::uint32_t k = 1; k < np; ++k) {
      const std::size_t window = objs.size() < 64 ? objs.size() : 64;
      if (rnd(3) != 0) {  // some fields stay null, some objects die
        o->store_ptr_plain(k, objs[objs.size() - 1 - rnd(window)]);
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
  core::ParallelCollector pc(pool, {g.heap},
                             core::ParallelGcOptions{team, 32});
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
  HeapArena arena(pool);
  BuiltGraph g = build_graph(arena, 20000, 7);
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
  CHECK_EQ(out.claim_conflicts, out.totals.claim_conflicts);
  // Per-worker rows sum to the totals.
  std::uint64_t sum = 0;
  for (const auto& w : out.per_worker) {
    sum += w.objects_copied;
  }
  CHECK_EQ(sum, out.totals.objects_copied);
}

PARMEM_TEST(parallel_gc_team_sizes_equivalent) {
  std::uint64_t checksum1 = 0;
  core::ParallelGcOutcome out1;
  {
    ChunkPool pool;
    HeapArena arena(pool);
    BuiltGraph g = build_graph(arena, 20000, 21);
    out1 = collect_graph(g, pool, 1);
    checksum1 = graph_checksum(g.roots);
  }
  for (unsigned team : {2u, 4u}) {
    ChunkPool pool;
    HeapArena arena(pool);
    BuiltGraph g = build_graph(arena, 20000, 21);
    core::ParallelGcOutcome out = collect_graph(g, pool, team);
    // Same live set regardless of who copies it.
    CHECK_EQ(out.totals.objects_copied, out1.totals.objects_copied);
    CHECK_EQ(out.totals.bytes_copied, out1.totals.bytes_copied);
    CHECK_EQ(graph_checksum(g.roots), checksum1);
  }
}

PARMEM_TEST(parallel_gc_single_worker_has_no_conflicts) {
  ChunkPool pool;
  HeapArena arena(pool);
  BuiltGraph g = build_graph(arena, 8000, 5);
  core::ParallelGcOutcome out = collect_graph(g, pool, 1);
  CHECK_EQ(out.claim_conflicts, 0u);
  CHECK(out.totals.objects_copied > 0);
  CHECK_EQ(out.per_worker.size(), 1u);
  CHECK_EQ(out.per_worker[0].packets_stolen, 0u);
}

// install_chunk_list's non-empty path: a retired chunk list detached
// from one record can be installed wholesale into another, carrying
// the object graph (addresses intact) and the allocated-bytes account.
PARMEM_TEST(heap_record_install_chunk_list_roundtrip) {
  ChunkPool pool;
  HeapArena arena(pool);
  BuiltGraph g = build_graph(arena, 8000, 11);
  const std::uint64_t before = graph_checksum(g.roots);
  const std::size_t allocated = g.heap->allocated_bytes();

  Chunk* head = g.heap->heap().detach_chunks();
  Chunk* tail = head;
  while (tail != nullptr && tail->next != nullptr) {
    tail = tail->next;
  }
  HeapRecord* other = arena.create(nullptr, 0);
  (void)other->allocate_raw(64);  // preexisting contents must be released
  other->install_chunk_list(head, tail, allocated);

  CHECK_EQ(other->allocated_bytes(), allocated);
  CHECK_EQ(graph_checksum(g.roots), before);  // addresses intact
  for (Object* r : g.roots) {
    CHECK(heap_of(r) == &other->heap());  // ownership retargeted
  }
  // And the adopted list collects normally from its new record.
  core::ParallelCollector pc(pool, {other},
                             core::ParallelGcOptions{2, 32});
  core::ParallelGcOutcome out = pc.collect([&g](auto&& fn) {
    for (Object*& r : g.roots) {
      fn(&r);
    }
  });
  CHECK(out.totals.bytes_copied > 0);
  CHECK_EQ(graph_checksum(g.roots), before);
}

// Stale promotion copies must forward through to their master: a
// "promoted" object's old copy sits in the collected heap with a
// forwarding pointer into a FOREIGN heap; the collector must chase it
// (rewriting roots to the master) and must not claim or copy the
// master itself.
PARMEM_TEST(parallel_gc_collects_promotion_forwarded_heaps) {
  ChunkPool pool;
  HeapArena arena(pool);
  HeapRecord* parent = arena.create(nullptr, 0);
  HeapRecord* child = arena.create(parent, 1);

  Object* master = init_object(parent->allocate_raw(object_bytes(0, 2)),
                               0, 2);
  master->store_i64_plain(0, 41);
  master->store_i64_plain(1, 43);
  Object* stale = init_object(child->allocate_raw(object_bytes(0, 2)), 0, 2);
  stale->set_fwd(master);  // what a finished promotion leaves behind

  Object* keeper = init_object(child->allocate_raw(object_bytes(1, 1)), 1, 1);
  keeper->store_i64_plain(0, 7);
  keeper->store_ptr_plain(0, stale);

  std::vector<Object*> roots{stale, keeper};
  core::ParallelCollector pc(pool, {child},
                             core::ParallelGcOptions{2, 32});
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

// Hier join-time subtree collections with a team must preserve kernel
// results exactly like the sequential join-time collector does.
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
  HierRuntime::Options o;
  o.workers = 2;
  o.gc_join_threshold = std::size_t{16} << 10;
  o.gc_parallel_team = 3;
  HierRuntime rt(o);
  for (int i = 0; i < 2; ++i) {
    CHECK_EQ(bench_usp_tree(rt, z).checksum, ref_usp);
    CHECK_EQ(bench_msort_pure(rt, z).checksum, ref_sort);
  }
  CHECK(rt.stats().gc_count > 0);
}

}  // namespace
