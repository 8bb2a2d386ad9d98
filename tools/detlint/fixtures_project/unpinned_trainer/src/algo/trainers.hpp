// Mini-project fixture (unpinned_trainer): two trainer entry points, both
// in the kill-and-resume matrix, of which the trainer table in
// tests/test_util.hpp holds only train_alpha. train_beta must be flagged
// at its own line.
#pragma once

namespace fixture {

int train_alpha(int rounds);
// detlint-expect: trainer-not-in-resume-matrix@+1
int train_beta(int rounds);

}  // namespace fixture
