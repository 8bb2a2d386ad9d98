// Fixture: src/parallel owns the process-wide pool, so defining and
// returning ThreadPool::global() here is not a finding; elsewhere a pool
// arrives as a parameter (null = serial).

namespace fixture {

class ThreadPool {
 public:
  static ThreadPool& global();
};

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

inline void ok_split(ThreadPool* pool) {
  if (pool == nullptr) return;  // serial on the caller
}

}  // namespace fixture
