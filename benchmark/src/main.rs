//! See the library's documentation (`lib.rs`) and `README.md`.

fn main() -> std::process::ExitCode {
    mmsb_benchmark::main()
}
