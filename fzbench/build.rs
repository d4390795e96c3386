//! Embeds the toolchain and source revision into the binary so every run
//! can print its fingerprint without spawning processes at run time.

use std::process::Command;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    println!("cargo:rustc-env=FZBENCH_RUSTC={}", first_line(&rustc, &["--version"]));
    // A source checkout without git metadata records "unknown".
    println!("cargo:rustc-env=FZBENCH_GIT_SHA={}", first_line("git", &["rev-parse", "HEAD"]));
    println!(
        "cargo:rustc-env=FZBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
