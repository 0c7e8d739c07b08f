#include "common/parallel_for.h"

#include <algorithm>

#include "common/logging.h"

namespace ulpdp {

void
parallelFor(int64_t begin, int64_t end, int jobs, int64_t chunk,
            const std::function<void(int64_t, int64_t)> &body)
{
    if (end <= begin)
        return;
    ULPDP_ASSERT(chunk >= 1);
    if (jobs <= 0)
        jobs = hardwareJobs();
    if (jobs == 1) {
        body(begin, end);
        return;
    }

    const int64_t nchunks = (end - begin + chunk - 1) / chunk;
    WorkerPool::instance().forEach(
        static_cast<uint64_t>(nchunks), static_cast<unsigned>(jobs),
        [&](uint64_t c, unsigned) {
            int64_t lo = begin + static_cast<int64_t>(c) * chunk;
            body(lo, std::min(lo + chunk, end));
        });
}

} // namespace ulpdp
