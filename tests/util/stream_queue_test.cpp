// ChunkStream / stream_chunks: the bounded-queue pipeline under the
// mega-scale scheduler. The contracts that keep streamed scheduling
// bit-identical to fill-then-drain: consumption is strictly in chunk order,
// a chunk publishes only once all its tasks land, at most slot_count chunks
// are ever in flight, serial and pooled execution produce the same outputs,
// and errors on either side abort the stream without deadlocking the caller.
// The claim contract that keeps every core busy: tasks are claimed singly in
// ascending order, so neither a chunk's tasks nor a run of chunks serialise
// on one lane.
#include "util/stream_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace mpleo::util {
namespace {

TEST(StreamChunks, ConsumesEveryChunkStrictlyInOrder) {
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (ThreadPool* handle : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
    // One task per chunk, and four per chunk with a short final chunk.
    for (const std::size_t per_chunk : {std::size_t{1}, std::size_t{4}}) {
      constexpr std::size_t kTasks = 97;
      constexpr std::size_t kSlots = 3;
      std::vector<std::vector<std::size_t>> slot_payload(
          kSlots, std::vector<std::size_t>(per_chunk, 0));
      std::vector<std::size_t> consumed;
      stream_chunks(
          handle, kTasks, per_chunk, kSlots,
          [&](std::size_t chunk, std::size_t task, std::size_t slot) {
            // Pooled runs cycle the slot ring; the serial path degenerates
            // to produce-then-consume in slot 0. Either way slots stay in
            // range, and each task writes only its own entry.
            ASSERT_LT(slot, kSlots);
            ASSERT_LT(task, per_chunk);
            slot_payload[slot][task] = chunk * chunk + task + 1;
          },
          [&](std::size_t chunk, std::size_t slot) {
            ASSERT_LT(slot, kSlots);
            // Every task's payload for exactly this chunk must be in the
            // slot — the chunk cannot publish early, nor the slot be
            // recycled early.
            const std::size_t tasks = std::min(per_chunk, kTasks - chunk * per_chunk);
            for (std::size_t task = 0; task < tasks; ++task) {
              ASSERT_EQ(slot_payload[slot][task], chunk * chunk + task + 1);
            }
            consumed.push_back(chunk);
          });
      std::vector<std::size_t> expected((kTasks + per_chunk - 1) / per_chunk);
      std::iota(expected.begin(), expected.end(), std::size_t{0});
      EXPECT_EQ(consumed, expected)
          << "threads=" << (handle == nullptr ? 1 : handle->thread_count())
          << " per_chunk=" << per_chunk;
    }
  }
}

TEST(StreamChunks, ClaimsOneTaskAtATimeInAscendingOrder) {
  // Task 0 blocks until task 1 has started on another lane, with a bounded
  // timeout so a serialised claim fails instead of hanging. Two shapes on
  // four threads: 256 one-task chunks, where a pool-style claim grain of
  // 256 / (4 * 8) = 8 would queue chunks 0-7 on one lane; and two chunks of
  // eight tasks, where one lane per chunk would fill chunk 0 alone.
  ThreadPool pool(4);
  struct Shape {
    std::size_t tasks, per_chunk;
  };
  for (const Shape shape : {Shape{256, 1}, Shape{16, 8}}) {
    std::atomic<bool> second_started{false};
    std::atomic<bool> first_saw_second{false};
    stream_chunks(
        &pool, shape.tasks, shape.per_chunk, 2,
        [&](std::size_t chunk, std::size_t task, std::size_t) {
          const std::size_t global = chunk * shape.per_chunk + task;
          if (global == 1) second_started = true;
          if (global != 0) return;
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!second_started.load() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          first_saw_second = second_started.load();
        },
        [](std::size_t, std::size_t) {});
    EXPECT_TRUE(first_saw_second.load()) << "per_chunk=" << shape.per_chunk;
  }
}

TEST(StreamChunks, NeverExceedsSlotCountInFlight) {
  ThreadPool pool(4);
  constexpr std::size_t kChunks = 64;
  constexpr std::size_t kSlots = 2;
  std::atomic<long> in_flight{0};
  std::atomic<long> peak{0};
  stream_chunks(
      &pool, kChunks, 1, kSlots,
      [&](std::size_t, std::size_t, std::size_t) {
        const long now = in_flight.fetch_add(1) + 1;
        long prev = peak.load();
        while (prev < now && !peak.compare_exchange_weak(prev, now)) {
        }
      },
      [&](std::size_t, std::size_t) { in_flight.fetch_sub(1); });
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_LE(peak.load(), static_cast<long>(kSlots));
  EXPECT_GE(peak.load(), 1);
}

TEST(StreamChunks, SerialAndPooledRunsProduceIdenticalResults) {
  constexpr std::size_t kChunks = 41;
  const auto run = [&](ThreadPool* pool, std::size_t slots) {
    std::vector<std::size_t> scratch(slots, 0);
    std::vector<std::size_t> out;
    out.reserve(kChunks);
    stream_chunks(
        pool, kChunks, 1, slots,
        [&](std::size_t chunk, std::size_t, std::size_t slot) {
          scratch[slot] = 3 * chunk + 7;
        },
        [&](std::size_t chunk, std::size_t slot) {
          (void)chunk;
          out.push_back(scratch[slot]);
        });
    return out;
  };
  const std::vector<std::size_t> serial = run(nullptr, 1);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  EXPECT_EQ(run(&pool2, 2), serial);
  EXPECT_EQ(run(&pool4, 3), serial);
  EXPECT_EQ(run(&pool4, 8), serial);
}

TEST(StreamChunks, ProducerErrorPropagatesWithoutDeadlock) {
  ThreadPool pool(3);
  for (ThreadPool* handle : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW(
        stream_chunks(
            handle, 32, 1, 2,
            [&](std::size_t chunk, std::size_t, std::size_t) {
              if (chunk == 5) throw std::runtime_error("producer boom");
            },
            [&](std::size_t, std::size_t) {}),
        std::runtime_error);
  }
}

TEST(StreamChunks, ProducerThrowAgainstBlockedSlotRingDoesNotDeadlock) {
  // The nasty variant: a slow consumer keeps the bounded slot ring full, so
  // producers are blocked in begin_produce() when one of them throws. The
  // stream must abort (waking the blocked producers), rethrow exactly the
  // first producer's error, and leave the pool reusable for a fresh stream.
  ThreadPool pool(3);
  std::atomic<int> consumed{0};
  try {
    stream_chunks(
        &pool, 64, 1, 2,
        [&](std::size_t chunk, std::size_t, std::size_t) {
          if (chunk == 7) throw std::runtime_error("late producer boom");
        },
        [&](std::size_t, std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          ++consumed;
        });
    FAIL() << "producer error did not propagate";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "late producer boom");
  }
  EXPECT_LT(consumed.load(), 64);
  int after = 0;
  stream_chunks(
      &pool, 8, 1, 2, [](std::size_t, std::size_t, std::size_t) {},
      [&](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after, 8);
}

TEST(StreamChunks, ConsumerErrorPropagatesWithoutDeadlock) {
  ThreadPool pool(3);
  for (ThreadPool* handle : {static_cast<ThreadPool*>(nullptr), &pool}) {
    EXPECT_THROW(
        stream_chunks(
            handle, 32, 1, 2, [&](std::size_t, std::size_t, std::size_t) {},
            [&](std::size_t chunk, std::size_t) {
              if (chunk == 3) throw std::runtime_error("consumer boom");
            }),
        std::runtime_error);
  }
}

TEST(StreamChunks, HandlesDegenerateShapes) {
  // Zero chunks: nothing runs, no hang.
  stream_chunks(
      nullptr, 0, 1, 4, [&](std::size_t, std::size_t, std::size_t) { FAIL(); },
      [&](std::size_t, std::size_t) { FAIL(); });
  // One chunk, oversized slot request (clamped to chunk count).
  int produced = 0;
  int consumed = 0;
  stream_chunks(
      nullptr, 1, 1, 100, [&](std::size_t, std::size_t, std::size_t) { ++produced; },
      [&](std::size_t, std::size_t) { ++consumed; });
  EXPECT_EQ(produced, 1);
  EXPECT_EQ(consumed, 1);
  // Fewer tasks than one chunk's worth, pooled: a single short chunk.
  ThreadPool pool(3);
  std::atomic<int> tasks{0};
  consumed = 0;
  stream_chunks(
      &pool, 3, 8, 2, [&](std::size_t, std::size_t, std::size_t) { ++tasks; },
      [&](std::size_t, std::size_t) { ++consumed; });
  EXPECT_EQ(tasks.load(), 3);
  EXPECT_EQ(consumed, 1);
}

TEST(ChunkStream, AbortWakesBothSides) {
  ChunkStream stream(8, 1, 2);
  stream.abort();
  EXPECT_THROW((void)stream.begin_produce(0), ChunkStreamAborted);
  EXPECT_FALSE(stream.wait_ready(0));
  EXPECT_FALSE(stream.claim().has_value());
}

}  // namespace
}  // namespace mpleo::util
