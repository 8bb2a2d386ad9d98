// Fixture: starting a thread outside src/parallel must fire — a
// std::thread or std::jthread object, a container of them, or a
// std::async call. Asking the hardware how many threads it has does
// not, nor does this comment's std::thread mention.
// detlint-expect: raw-thread@+8
// detlint-expect: raw-thread@+8
// detlint-expect: raw-thread@+8
// detlint-expect: raw-thread@+8

namespace fixture {

inline void bad_background(void (*work)()) {
  std::thread t(work);
  std::jthread j(work);
  std::vector<std::thread> crew;
  auto f = std::async(work);
  t.join();
}

inline unsigned ok_width() { return std::thread::hardware_concurrency(); }

}  // namespace fixture
