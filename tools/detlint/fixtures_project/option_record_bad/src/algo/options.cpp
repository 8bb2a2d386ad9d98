// Mini-project fixture (option_record_bad): the record lacks rows for
// `momentum` and `fault.burst_len`, and an exempt entry gives no reason.
#include "algo/options.hpp"

#include <string>
#include <utility>

namespace fixture {

using Render = std::string (*)(const TrainOptions&);

struct Row {
  const char* name;
  Render render;
};

#define HM_ROW(field) \
  Row { #field, [](const TrainOptions& o) { return std::to_string(o.field); } }

const Row kRows[] = {
    HM_ROW(rounds), HM_ROW(p_set.lo), HM_ROW(p_set.hi), HM_ROW(fault.enabled),
};

constexpr std::pair<const char*, const char*> kNoRow[] = {
    // detlint-expect: option-not-in-record@+1
    {"resume_from", ""},
};

}  // namespace fixture
