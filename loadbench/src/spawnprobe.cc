// spawnprobe — a program that does nothing, linked against the same C++
// runtime as cssamed. The timed run spawns it next to each cssamed it
// starts for set-up: its fork-to-exit time is what any such process costs
// to create and load on this host at that moment, and setup_s is taken
// relative to it (README.md, "Noise").
#include <iostream>

int main() {
  std::cout.flush();
  return 0;
}
