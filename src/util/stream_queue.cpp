#include "util/stream_queue.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "util/thread_pool.hpp"

namespace mpleo::util {

ChunkStream::ChunkStream(std::size_t task_count, std::size_t tasks_per_chunk,
                         std::size_t slot_count)
    : task_count_(task_count),
      tasks_per_chunk_(std::max<std::size_t>(1, tasks_per_chunk)),
      chunk_count_((task_count + tasks_per_chunk_ - 1) / tasks_per_chunk_),
      slot_count_(std::max<std::size_t>(
          1, std::min(slot_count, std::max<std::size_t>(chunk_count_, 1)))) {
  produce_turn_.resize(slot_count_);
  pending_.resize(slot_count_);
  for (std::size_t s = 0; s < slot_count_; ++s) {
    produce_turn_[s] = s;
    pending_[s] = tasks_in(s);
  }
}

std::size_t ChunkStream::tasks_in(std::size_t chunk) const noexcept {
  const std::size_t begin = chunk * tasks_per_chunk_;
  return begin < task_count_ ? std::min(tasks_per_chunk_, task_count_ - begin) : 0;
}

std::optional<std::size_t> ChunkStream::claim() {
  std::lock_guard lock(mutex_);
  if (aborted_ || next_task_ >= task_count_) return std::nullopt;
  return next_task_++;
}

std::size_t ChunkStream::begin_produce(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  std::unique_lock lock(mutex_);
  slot_free_.wait(lock,
                  [&] { return aborted_ || produce_turn_[slot] == chunk; });
  if (aborted_) throw ChunkStreamAborted{};
  return slot;
}

void ChunkStream::finish_task(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  bool published = false;
  {
    std::lock_guard lock(mutex_);
    published = --pending_[slot] == 0;
  }
  if (published) published_cv_.notify_one();
}

bool ChunkStream::wait_ready(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  std::unique_lock lock(mutex_);
  published_cv_.wait(lock, [&] {
    return aborted_ || (produce_turn_[slot] == chunk && pending_[slot] == 0);
  });
  return !aborted_;
}

void ChunkStream::release(std::size_t chunk) {
  const std::size_t slot = chunk % slot_count_;
  {
    std::lock_guard lock(mutex_);
    produce_turn_[slot] = chunk + slot_count_;
    pending_[slot] = tasks_in(chunk + slot_count_);
  }
  // More than one producer can be parked on this condition (distinct future
  // chunks mapping to distinct slots woken spuriously is fine; correctness
  // only needs the one whose turn arrived to wake eventually).
  slot_free_.notify_all();
}

void ChunkStream::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
  }
  slot_free_.notify_all();
  published_cv_.notify_all();
}

void stream_chunks(
    ThreadPool* pool, std::size_t task_count, std::size_t tasks_per_chunk,
    std::size_t slot_count,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& produce,
    const std::function<void(std::size_t, std::size_t)>& consume) {
  if (task_count == 0) return;
  tasks_per_chunk = std::max<std::size_t>(1, tasks_per_chunk);
  if (pool == nullptr || pool->thread_count() <= 1) {
    // Serial: each chunk is produced then immediately consumed in one slot.
    for (std::size_t begin = 0, c = 0; begin < task_count; begin += tasks_per_chunk, ++c) {
      const std::size_t tasks = std::min(tasks_per_chunk, task_count - begin);
      for (std::size_t t = 0; t < tasks; ++t) produce(c, t, 0);
      consume(c, 0);
    }
    return;
  }

  ChunkStream stream(task_count, tasks_per_chunk, slot_count);
  std::exception_ptr produce_error;
  std::mutex error_mutex;

  // One lane per pool thread, each claiming single tasks from the stream's
  // cursor until it runs dry. A failed task never finishes, so its chunk
  // never publishes and the consumer — plus every producer behind the dead
  // slot — would block forever; aborting the stream BEFORE returning turns
  // all of those waits into immediate exits, and the first real error is
  // what propagates.
  const auto lane = [&](std::size_t) {
    while (const std::optional<std::size_t> task = stream.claim()) {
      const std::size_t chunk = *task / tasks_per_chunk;
      std::size_t slot = 0;
      try {
        slot = stream.begin_produce(chunk);
      } catch (const ChunkStreamAborted&) {
        return;  // stream already failed; nothing to clean up
      }
      try {
        produce(chunk, *task - chunk * tasks_per_chunk, slot);
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!produce_error) produce_error = std::current_exception();
        }
        stream.abort();
        return;
      }
      stream.finish_task(chunk);
    }
  };

  // Producers run on the pool from a helper thread so this thread is free to
  // consume; the helper participates in the parallel_for as one more lane.
  // parallel_for's claim grain is one index when count == width, so every
  // pool thread gets a lane.
  std::thread producers([&] { pool->parallel_for(pool->thread_count(), lane); });

  try {
    for (std::size_t c = 0; c < stream.chunk_count(); ++c) {
      if (!stream.wait_ready(c)) break;  // aborted: producer error pending
      consume(c, c % stream.slot_count());
      stream.release(c);
    }
  } catch (...) {
    stream.abort();
    producers.join();
    throw;
  }
  producers.join();
  {
    std::lock_guard lock(error_mutex);
    if (produce_error) std::rethrow_exception(produce_error);
  }
}

}  // namespace mpleo::util
