#include "fingerprint.hpp"

#include <cstdio>
#include <cstring>

namespace hm::perfbench {

namespace {

constexpr std::uint64_t kPrime = 1099511628211ULL;

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= kPrime;
  }
}

void mix_f64(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix_u64(h, bits);
}

void mix_vec(std::uint64_t& h, const std::vector<scalar_t>& v) {
  mix_u64(h, v.size());
  for (const scalar_t x : v) mix_f64(h, x);
}

void mix_link(std::uint64_t& h, const sim::LinkFaultStats& s) {
  mix_u64(h, s.attempted);
  mix_u64(h, s.delivered);
  mix_u64(h, s.dropped);
  mix_u64(h, s.in_retry);
  mix_u64(h, s.straggled);
  mix_f64(h, s.extra_rtts);
}

}  // namespace

std::string Fingerprint::str() const {
  char buf[80];
  std::snprintf(buf, sizeof buf, "w:%016llx,p:%016llx,comm:%016llx",
                static_cast<unsigned long long>(w),
                static_cast<unsigned long long>(p),
                static_cast<unsigned long long>(comm));
  return buf;
}

void FingerprintHasher::add(const algo::TrainResult& r) {
  mix_vec(fp_.w, r.w);
  mix_vec(fp_.p, r.p);
  const auto& c = r.comm;
  for (const std::uint64_t v :
       {c.client_edge_rounds, c.edge_cloud_rounds, c.client_edge_models_up,
        c.client_edge_models_down, c.edge_cloud_models_up,
        c.edge_cloud_models_down, c.client_edge_scalars, c.edge_cloud_scalars,
        c.client_edge_bytes, c.edge_cloud_bytes}) {
    mix_u64(fp_.comm, v);
  }
  mix_link(fp_.comm, c.client_edge_fault);
  mix_link(fp_.comm, c.edge_cloud_fault);
}

Fingerprint fingerprint(const algo::TrainResult& result) {
  FingerprintHasher b;
  b.add(result);
  return b.get();
}

}  // namespace hm::perfbench
