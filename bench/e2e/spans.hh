/**
 * @file
 * In-memory span log for the traced repetition of bench_e2e.
 *
 * A span is one call into a layer, recorded from the benchmark's side
 * of the boundary: name, start, end, the span that caused it and the
 * lane (0 = the driving thread, 1..N = pool threads) that ran it.
 * Spans stay in memory while the repetition runs and are written as
 * JSON Lines once it has ended, so file I/O never lands inside a
 * timed interval.
 */

#ifndef MBUSIM_BENCH_E2E_SPANS_HH
#define MBUSIM_BENCH_E2E_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

struct Span
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;    ///< 0 = no parent
    uint32_t lane = 0;
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }
};

class SpanLog
{
  public:
    uint64_t nextId()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return ++lastId_;
    }

    void add(Span span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(std::move(span));
    }

    /** Every span (call once every lane has joined). */
    const std::vector<Span>& spans() const { return spans_; }

    /** Spans named @p name (call once every lane has joined). */
    std::vector<const Span*> named(const std::string& name) const
    {
        std::vector<const Span*> out;
        for (const Span& s : spans_) {
            if (s.name == name)
                out.push_back(&s);
        }
        return out;
    }

    /** Summed duration of the spans named @p name, in seconds. */
    double total(const std::string& name) const
    {
        double sum = 0;
        for (const Span* s : named(name))
            sum += s->seconds();
        return sum;
    }

    /** Duration of @p span minus the part of it its child spans
     *  cover, in seconds. */
    double selfSeconds(const Span& span) const
    {
        std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
        for (const Span& s : spans_) {
            if (s.parent == span.id)
                kids.push_back({std::max(s.start, span.start),
                                std::min(s.end, span.end)});
        }
        std::sort(kids.begin(), kids.end());
        Clock::duration covered{0};
        Clock::time_point reach = span.start;
        for (const auto& [from, to] : kids) {
            const Clock::time_point lo = std::max(from, reach);
            if (to > lo) {
                covered += to - lo;
                reach = to;
            }
        }
        return span.seconds() -
               std::chrono::duration<double>(covered).count();
    }

    /** Append every span as one JSON object per line to @p path,
     *  tagged with @p rep; times are microseconds from the earliest
     *  span. Returns false if the file cannot be written. */
    bool writeJsonl(const std::string& path, const std::string& rep) const
    {
        if (spans_.empty())
            return true;
        std::FILE* f = std::fopen(path.c_str(), "a");
        if (!f)
            return false;
        Clock::time_point epoch = spans_.front().start;
        for (const Span& s : spans_)
            epoch = std::min(epoch, s.start);
        auto us = [&](Clock::time_point t) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    t - epoch)
                    .count());
        };
        for (const Span& s : spans_) {
            std::fprintf(f,
                         "{\"rep\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                         "\"parent\":%llu,\"thread\":%u,"
                         "\"start_us\":%lld,\"end_us\":%lld}\n",
                         rep.c_str(), s.name.c_str(),
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent), s.lane,
                         us(s.start), us(s.end));
        }
        return std::fclose(f) == 0;
    }

  private:
    std::mutex mutex_;
    uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

/** RAII span: opened at construction, recorded at destruction. A null
 *  log makes it a no-op, so untraced and traced drives share call
 *  sites. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog* log, std::string name, uint64_t parent,
               uint32_t lane)
        : log_(log)
    {
        if (!log_)
            return;
        span_.name = std::move(name);
        span_.id = log_->nextId();
        span_.parent = parent;
        span_.lane = lane;
        span_.start = Clock::now();
    }

    ~ScopedSpan()
    {
        if (!log_)
            return;
        span_.end = Clock::now();
        log_->add(std::move(span_));
    }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    uint64_t id() const { return span_.id; }

  private:
    SpanLog* log_;
    Span span_;
};

} // namespace e2e

#endif // MBUSIM_BENCH_E2E_SPANS_HH
