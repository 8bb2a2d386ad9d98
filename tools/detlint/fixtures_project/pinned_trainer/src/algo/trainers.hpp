// Mini-project fixture (pinned_trainer): two trainer entry points, each
// in the kill-and-resume matrix and the trainer table. The case must lint
// clean.
#pragma once

namespace fixture {

int train_alpha(int rounds);
int train_beta(int rounds);

}  // namespace fixture
