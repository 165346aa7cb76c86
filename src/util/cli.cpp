#include "util/cli.hpp"

#include <cstdio>
#include <stdexcept>

namespace whtlab::util {

namespace {

/// `text` read whole by `parse` (std::stoi, std::stoll or std::stod): no
/// number, a number with trailing text, or one out of range throws
/// std::invalid_argument naming the flag.
template <typename Parse>
auto parse_whole(const std::string& name, const std::string& text,
                 Parse parse) {
  std::size_t pos = 0;
  try {
    const auto value = parse(text, &pos);
    if (pos == text.size()) return value;
  } catch (const std::logic_error&) {
    // std::invalid_argument or std::out_of_range; reported below.
  }
  throw std::invalid_argument("--" + name + ": not a number: " + text);
}

}  // namespace

void Cli::add_flag(const std::string& name, const std::string& help,
                   std::optional<std::string> default_value) {
  flags_[name] = Flag{help, std::move(default_value), /*boolean=*/false};
}

void Cli::add_bool(const std::string& name, const std::string& help) {
  flags_[name] = Flag{help, std::nullopt, /*boolean=*/true};
}

std::string Cli::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name;
    if (flag.default_value) out += " (default: " + *flag.default_value + ")";
    out += "\n      " + flag.help + "\n";
  }
  return out;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    bool have_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    } else {
      name = arg;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (!have_value && !it->second.boolean && i + 1 < argc &&
        argv[i + 1][0] != '-') {
      value = argv[++i];
      have_value = true;
    }
    values_[name] = have_value ? value : "true";
  }
  return true;
}

bool Cli::has(const std::string& name) const {
  if (values_.count(name)) return true;
  const auto it = flags_.find(name);
  return it != flags_.end() && it->second.default_value.has_value();
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it != values_.end()) return it->second;
  const auto decl = flags_.find(name);
  if (decl != flags_.end() && decl->second.default_value) {
    return *decl->second.default_value;
  }
  return fallback;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string text = get(name);
  if (text.empty()) return fallback;
  return parse_whole(name, text, [](const std::string& s, std::size_t* pos) {
    return std::stoll(s, pos);
  });
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string text = get(name);
  if (text.empty()) return fallback;
  return parse_whole(name, text, [](const std::string& s, std::size_t* pos) {
    return std::stod(s, pos);
  });
}

std::vector<int> Cli::get_int_list(const std::string& name) const {
  std::vector<int> out;
  std::string current;
  for (const char c : get(name) + ",") {
    if (c == ',') {
      if (!current.empty()) {
        out.push_back(parse_whole(
            name, current, [](const std::string& s, std::size_t* pos) {
              return std::stoi(s, pos);
            }));
      }
      current.clear();
    } else {
      current += c;
    }
  }
  return out;
}

}  // namespace whtlab::util
