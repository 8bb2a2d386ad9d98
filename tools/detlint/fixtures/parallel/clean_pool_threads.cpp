// Fixture: src/parallel owns the pool's worker threads, so starting and
// joining them here is not a raw-thread finding.

namespace fixture {

class Pool {
 public:
  explicit Pool(unsigned n) {
    for (unsigned i = 1; i < n; ++i) workers_.emplace_back([] {});
  }
  ~Pool() {
    for (auto& w : workers_) w.join();
  }

 private:
  std::vector<std::thread> workers_;
};

}  // namespace fixture
