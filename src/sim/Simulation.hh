/**
 * @file
 * The Simulation: owns the event queue and every spawned task.
 */

#ifndef SAN_SIM_SIMULATION_HH
#define SAN_SIM_SIMULATION_HH

#include <cassert>
#include <list>
#include <string>
#include <type_traits>

#include "sim/EventQueue.hh"
#include "sim/Task.hh"
#include "sim/Tracer.hh"
#include "sim/Types.hh"

namespace san::sim {

/**
 * A single simulation run: an event queue plus a registry of detached
 * tasks. Spawned tasks are owned by the simulation and reaped once
 * complete.
 */
class Simulation
{
  public:
    Simulation() = default;
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    EventQueue &events() { return events_; }
    Tick now() const { return events_.now(); }

    /**
     * Attach (or clear) a tracer. Hardware models consult tracer()
     * before emitting spans, so a null tracer costs one branch.
     */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }
    Tracer *tracer() const { return tracer_; }

    /**
     * Start a detached task. The simulation owns the coroutine frame
     * until it finishes. Tasks begin executing immediately (at the
     * current simulated time).
     */
    void
    spawn(Task task)
    {
        assert(task.valid());
        reap();
        task.handle().promise().sim = this;
        auto &slot = tasks_.emplace_back(std::move(task));
        slot.handle().resume();
        if (slot.handle().promise().error)
            std::rethrow_exception(slot.handle().promise().error);
    }

    /** Run until no events remain. @return final simulated time. */
    Tick
    run()
    {
        Tick t = events_.run();
        reap();
        return t;
    }

    /** Run events up to and including @p limit ticks. */
    Tick runUntil(Tick limit) { return events_.runUntil(limit); }

    /** Number of live (not yet finished) tasks. */
    std::size_t
    liveTasks() const
    {
        std::size_t n = 0;
        for (const auto &t : tasks_)
            if (!t.done())
                ++n;
        return n;
    }

  private:
    void
    reap()
    {
        for (auto it = tasks_.begin(); it != tasks_.end();) {
            if (it->done()) {
                if (it->handle().promise().error)
                    std::rethrow_exception(it->handle().promise().error);
                it = tasks_.erase(it);
            } else {
                ++it;
            }
        }
    }

    EventQueue events_;
    std::list<Task> tasks_;
    Tracer *tracer_ = nullptr;
};

namespace detail {

/** Awaiter scheduling resumption after a fixed delay. */
struct DelayAwaiter {
    Simulation *sim;
    Tick ticks;

    // Even zero-tick delays go through the event queue so that
    // resumption order is deterministic and stacks stay shallow —
    // but via postNow, so they stay out of the ladder scheduler's
    // bucket-width tuning statistics (a zero horizon says nothing
    // about where timed events land).
    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h) const
    {
        static_assert(sizeof(Resume) <= EventQueue::inlineCaptureBytes,
                      "coroutine resumption must stay allocation-free");
        if (ticks == 0)
            sim->events().postNow(Resume{h});
        else
            sim->events().after(ticks, Resume{h});
    }

    void await_resume() const noexcept {}
};

/** Awaiter running a child task to completion. */
template <typename TaskT>
struct TaskAwaiter {
    TaskT child; // keeps the child frame alive across the await
    Simulation *sim;

    bool await_ready() const noexcept { return !child.valid(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        auto &cp = child.handle().promise();
        cp.sim = sim;
        cp.continuation = parent;
        return child.handle(); // symmetric transfer: start the child
    }

    decltype(auto)
    await_resume()
    {
        auto &cp = child.handle().promise();
        if (cp.error)
            std::rethrow_exception(cp.error);
        if constexpr (requires { cp.value; }) {
            assert(cp.value.has_value());
            return std::move(*cp.value);
        }
    }
};

inline DelayAwaiter
PromiseBase::await_transform(Delay d) noexcept
{
    assert(sim && "task must be spawned on a Simulation");
    return DelayAwaiter{sim, d.ticks};
}

inline TaskAwaiter<Task>
PromiseBase::await_transform(Task &&child) noexcept
{
    return TaskAwaiter<Task>{std::move(child), sim};
}

template <typename T>
TaskAwaiter<ValueTask<T>>
PromiseBase::await_transform(ValueTask<T> &&child) noexcept
{
    return TaskAwaiter<ValueTask<T>>{std::move(child), sim};
}

} // namespace detail

} // namespace san::sim

#endif // SAN_SIM_SIMULATION_HH
