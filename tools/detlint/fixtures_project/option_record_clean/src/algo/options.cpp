// Mini-project fixture (option_record_clean): the options record table
// and its exempt list.
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
    HM_ROW(rounds),        HM_ROW(eta_w),     HM_ROW(p_set.lo),
    HM_ROW(p_set.hi),      HM_ROW(fault.enabled),
    HM_ROW(fault.drop_prob),
    {"taus", [](const TrainOptions& o) { return std::to_string(o.tau1); }},
};

constexpr std::pair<const char*, const char*> kNoRow[] = {
    {"tau1", "resolved into the taus row"},
    {"resume_from", "names the store the record is checked against"},
};

}  // namespace fixture
