// Fixture: reaching ThreadPool::global() outside src/parallel must fire,
// whether the pool is called or only referenced. The mentions in this
// comment and in the string below are not code and must not fire.
// detlint-expect: hidden-global-pool@+10
// detlint-expect: hidden-global-pool@+13

namespace fixture {

struct Model;
void loss_many(const Model& m, parallel::ThreadPool* pool);

inline void bad_phase2(const Model& m) {
  // Runs on the process-wide pool, whatever pool the trainer was given.
  loss_many(m, &parallel::ThreadPool::global());
}

inline parallel::ThreadPool& (*bad_pool_source())() {
  return &hm::parallel::ThreadPool::global;
}

inline const char* ok_message() { return "never ThreadPool::global()"; }

}  // namespace fixture
