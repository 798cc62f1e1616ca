// Bounded-queue chunk streaming between a parallel producer stage and a
// sequential, in-order consumer stage.
//
// The pipelined scheduler's phase 1 builds per-chunk candidate lists in
// parallel and phase 2 must consume them strictly in step order. Filling
// every chunk before draining any (fill-then-drain) makes peak memory
// proportional to the whole horizon; ChunkStream instead recycles a fixed
// ring of S slots: chunk c may only be produced into slot c % S once the
// consumer has released chunk c - S, so at most S chunks of output exist at
// any moment and phase 2 starts the instant chunk 0 lands. Output is
// bit-identical to fill-then-drain because the consumer still sees chunks
// 0, 1, 2, ... in order — only the interleaving of work changes.
//
// Production is split into tasks: chunk c owns the consecutive tasks
// [c * tasks_per_chunk, (c + 1) * tasks_per_chunk) (the last chunk may be
// short), and a chunk publishes when its last task lands. Producers claim
// tasks one at a time, in ascending order, from the stream's own cursor.
// Slots therefore bound memory, not parallelism: every producer lane works on
// the oldest unclaimed task, so the chunks the consumer needs next are the
// ones being filled. Claims must never be batched — a lane holding tasks
// t..t+k runs them serially while the lanes behind it block on slots that
// only those tasks can free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

namespace mpleo::util {

class ThreadPool;

// Thrown out of begin_produce when the stream has been aborted (some other
// producer or the consumer failed). Producers let it propagate; the driver
// swallows it so the first real error is what reaches the caller.
struct ChunkStreamAborted : std::runtime_error {
  ChunkStreamAborted() : std::runtime_error("chunk stream aborted") {}
};

class ChunkStream {
 public:
  // `task_count` tasks in chunks of `tasks_per_chunk` (clamped to >= 1);
  // `slot_count` is clamped to [1, chunk_count].
  ChunkStream(std::size_t task_count, std::size_t tasks_per_chunk,
              std::size_t slot_count);

  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunk_count_; }
  [[nodiscard]] std::size_t slot_count() const noexcept { return slot_count_; }

  // Producer side: the next unclaimed task, in ascending order, one per call.
  // Empty once every task is claimed or the stream has aborted.
  [[nodiscard]] std::optional<std::size_t> claim();
  // Blocks until slot (chunk % slot_count) is free for this chunk (i.e. the
  // consumer has released chunk - slot_count), returning the slot index.
  // Throws ChunkStreamAborted if abort() lands first.
  [[nodiscard]] std::size_t begin_produce(std::size_t chunk);
  // Marks one task of the chunk complete; the chunk's last task publishes it
  // and wakes the consumer if it is waiting.
  void finish_task(std::size_t chunk);

  // Consumer side: blocks until `chunk` has been published. Returns false if
  // the stream aborted instead (the chunk may never arrive).
  [[nodiscard]] bool wait_ready(std::size_t chunk);
  // Frees the chunk's slot for chunk + slot_count; call after consuming.
  void release(std::size_t chunk);

  // Fails the stream: every blocked or future begin_produce throws
  // ChunkStreamAborted, claim returns empty and wait_ready returns false.
  // Idempotent.
  void abort();

 private:
  [[nodiscard]] std::size_t tasks_in(std::size_t chunk) const noexcept;

  const std::size_t task_count_;
  const std::size_t tasks_per_chunk_;
  const std::size_t chunk_count_;
  const std::size_t slot_count_;
  std::mutex mutex_;
  std::condition_variable slot_free_;   // producers wait for their turn
  std::condition_variable published_cv_;  // consumer waits for its chunk
  // produce_turn_[s] is the next chunk allowed to occupy slot s (starts at
  // s, advances by slot_count on release). pending_[s] counts the tasks of
  // that chunk not yet finished; zero means the chunk is published.
  std::vector<std::size_t> produce_turn_;
  std::vector<std::size_t> pending_;
  std::size_t next_task_ = 0;
  bool aborted_ = false;
};

// Runs `produce(chunk, task, slot)` for every task of every chunk — `task`
// counts from 0 inside its chunk — across the pool (inline when `pool` is
// null) while this thread consumes `consume(chunk, slot)` strictly in chunk
// order, with at most `slot_count` chunks in flight. Tasks of one chunk run
// concurrently on distinct lanes and must write disjoint parts of the slot.
// Exceptions from either side abort the stream and the first producer error
// (or the consumer's) is rethrown here after all workers drain. Returns once
// every chunk is consumed.
void stream_chunks(
    ThreadPool* pool, std::size_t task_count, std::size_t tasks_per_chunk,
    std::size_t slot_count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& produce,
    const std::function<void(std::size_t, std::size_t)>& consume);

}  // namespace mpleo::util
