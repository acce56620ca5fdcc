// The bounded priority queue between admission and the scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/job_queue.hpp"

namespace oocgemm::serve {
namespace {

TEST(BoundedJobQueue, PriorityFirstThenFifo) {
  BoundedJobQueue<int> q(16);
  ASSERT_TRUE(q.TryPush(0, 100));
  ASSERT_TRUE(q.TryPush(5, 200));
  ASSERT_TRUE(q.TryPush(5, 201));
  ASSERT_TRUE(q.TryPush(1, 300));
  EXPECT_EQ(q.Pop(), 200);  // highest priority, earliest
  EXPECT_EQ(q.Pop(), 201);  // FIFO within the class
  EXPECT_EQ(q.Pop(), 300);
  EXPECT_EQ(q.Pop(), 100);
}

TEST(BoundedJobQueue, BoundRejectsOverflow) {
  BoundedJobQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(0, 1));
  EXPECT_TRUE(q.TryPush(0, 2));
  EXPECT_FALSE(q.TryPush(0, 3));
  EXPECT_EQ(q.size(), 2u);
  q.Pop();
  EXPECT_TRUE(q.TryPush(0, 3));
}

TEST(BoundedJobQueue, CloseDrainsThenReturnsNullopt) {
  BoundedJobQueue<int> q(4);
  q.TryPush(0, 1);
  q.TryPush(0, 2);
  q.Close();
  EXPECT_FALSE(q.TryPush(0, 3));  // closed: no new work
  EXPECT_EQ(q.Pop(), 1);          // but queued work still drains
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), std::nullopt);
}

TEST(BoundedJobQueue, CloseWakesBlockedPopper) {
  BoundedJobQueue<int> q(4);
  std::optional<int> got = 42;
  std::thread popper([&] { got = q.Pop(); });
  q.Close();
  popper.join();
  EXPECT_EQ(got, std::nullopt);
}

TEST(BoundedJobQueue, ConcurrentProducersConsumersSeeEveryItem) {
  BoundedJobQueue<int> q(1024);
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush(p, p * kPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int> seen;
  std::mutex seen_mutex;
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) {
        std::unique_lock<std::mutex> lock(seen_mutex);
        seen.push_back(*v);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), 3u * kPerProducer);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace oocgemm::serve
