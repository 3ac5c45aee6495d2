int main() { int z = 0; int x = 7 / z; return x; }
