#include "quamax/core/parallel_sampler.hpp"

#include <algorithm>

namespace quamax::core {

void run_blocks(ThreadPool& pool, std::size_t count, std::size_t max_block,
                Rng& rng,
                const std::function<void(std::size_t, std::vector<Rng>&)>& job) {
  if (count == 0) return;
  const std::size_t block = std::max<std::size_t>(1, max_block);
  const std::size_t num_blocks = (count + block - 1) / block;
  const std::uint64_t key = rng();
  pool.parallel_for(num_blocks, [&](std::size_t b) {
    const std::size_t begin = b * block;
    const std::size_t size = std::min(block, count - begin);
    std::vector<Rng> streams;
    streams.reserve(size);
    for (std::size_t j = 0; j < size; ++j)
      streams.push_back(Rng::for_stream(key, begin + j));
    job(begin, streams);
  });
}

}  // namespace quamax::core
